package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/stream"
	"repro/internal/wire"
)

// ErrSnapshotCorrupt marks a stored snapshot that existed but is not a
// session: it does not decode, has no checkpoint, or names another id.
// DirStore quarantines the file (renames it to <name>.corrupt) before
// returning this, so the id is immediately reusable; the manager
// converts the error into a clean miss and counts it.
var ErrSnapshotCorrupt = errors.New("serve: snapshot corrupt")

// FleetJSON is the portable fleet descriptor of a served session: either a
// registered scenario's fleet (by name and seed) or an inline list of
// server types (static cost profiles of the built-in families). It is part
// of every snapshot, so an evicted session can be rebuilt by a process
// that never saw the original open request.
type FleetJSON struct {
	Scenario string                 `json:"scenario,omitempty"`
	Seed     int64                  `json:"seed,omitempty"`
	Types    []model.ServerTypeJSON `json:"types,omitempty"`
}

// Resolve materialises the fleet template the descriptor names.
func (f *FleetJSON) Resolve() ([]model.ServerType, error) {
	switch {
	case f.Scenario != "" && len(f.Types) > 0:
		return nil, fmt.Errorf("serve: fleet names both a scenario and inline types")
	case f.Scenario != "":
		sc, ok := engine.Lookup(f.Scenario)
		if !ok {
			return nil, fmt.Errorf("serve: unknown fleet scenario %q", f.Scenario)
		}
		return sc.Instance(f.Seed).Types, nil
	case len(f.Types) > 0:
		return model.FleetTemplate(f.Types)
	default:
		return nil, fmt.Errorf("serve: fleet needs a scenario name or inline types")
	}
}

// Snapshot is an evicted (or client-checkpointed) session in portable
// form: identity, fleet descriptor and the session's replay log
// (stream.Checkpoint, which already names the algorithm). Resuming it
// reproduces the live session bit-identically.
//
// Its stored form (encodeSnapshot) is the compact JSON json.Marshal
// makes of it, written by the zero-reflection internal/wire codec; only
// the small fleet descriptor goes through encoding/json. decodeSnapshot
// accepts any JSON whitespace, so files written indented by earlier
// versions load unchanged.
//
// State is store-internal: the session's saved decision state
// (stream.Session.AppendState), bound to the checkpoint's log, which
// lets a resume skip replaying the log. It is absent for algorithms
// without a state codec and never leaves the daemon — the checkpoint
// endpoint strips it, and client-supplied checkpoints always replay.
type Snapshot struct {
	ID         string             `json:"id"`
	Fleet      FleetJSON          `json:"fleet"`
	Checkpoint *stream.Checkpoint `json:"checkpoint"`
	State      []byte             `json:"state,omitempty"`
}

// encodeSnapshot appends snap's stored form to dst: exactly the bytes
// json.Marshal(snap) produces.
func encodeSnapshot(dst []byte, snap *Snapshot) ([]byte, error) {
	fleet, err := json.Marshal(&snap.Fleet)
	if err != nil {
		return dst, err
	}
	return wire.AppendSnapshot(dst, &wire.Snapshot{ID: snap.ID, Fleet: fleet, Checkpoint: snap.Checkpoint, State: snap.State})
}

// snapshotSize bounds the stored size of snap from above for the usual
// logs, so a save encodes into one buffer: a slot takes about 25 of its
// 32 bytes, the base64 state 4/3 of its raw size.
func snapshotSize(snap *Snapshot) int {
	n := 256 + 2*len(snap.State)
	if snap.Checkpoint != nil {
		n += 32 * len(snap.Checkpoint.Slots)
	}
	return n
}

// decodeSnapshot decodes the stored form of session id. A snapshot
// that does not decode, has no checkpoint or names another session is
// not id's session and reports an error; the stores turn it into
// ErrSnapshotCorrupt, so the id reads as a clean miss instead of
// failing every request for it.
func decodeSnapshot(id string, data []byte) (*Snapshot, error) {
	var ws wire.Snapshot
	if err := wire.DecodeSnapshot(data, &ws); err != nil {
		return nil, err
	}
	if ws.Checkpoint == nil {
		return nil, errors.New("no checkpoint")
	}
	if ws.ID != id {
		return nil, fmt.Errorf("snapshot of session %q", ws.ID)
	}
	snap := &Snapshot{ID: ws.ID, Checkpoint: ws.Checkpoint, State: ws.State}
	if ws.Fleet != nil {
		if err := json.Unmarshal(ws.Fleet, &snap.Fleet); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// SnapshotStore persists evicted sessions. Implementations must be safe
// for concurrent use; Load reports ok=false for unknown ids and
// ErrSnapshotCorrupt for a stored snapshot that is not the id's session.
type SnapshotStore interface {
	Save(snap *Snapshot) error
	Load(id string) (snap *Snapshot, ok bool, err error)
	Delete(id string) error
}

// MemStore is the in-memory SnapshotStore: eviction sheds a live session
// down to its replay log and saved state, and snapshots die with the
// process. It keeps each snapshot in its stored form, the same bytes
// DirStore writes, so both stores exercise one codec.
type MemStore struct {
	mu    sync.Mutex
	snaps map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{snaps: map[string][]byte{}} }

// Save implements SnapshotStore.
func (s *MemStore) Save(snap *Snapshot) error {
	data, err := encodeSnapshot(make([]byte, 0, snapshotSize(snap)), snap)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snaps[snap.ID] = data
	return nil
}

// Load implements SnapshotStore.
func (s *MemStore) Load(id string) (*Snapshot, bool, error) {
	s.mu.Lock()
	data, ok := s.snaps[id]
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	snap, err := decodeSnapshot(id, data)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, id, err)
	}
	return snap, true, nil
}

// Delete implements SnapshotStore.
func (s *MemStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.snaps, id)
	return nil
}

// DirStore persists snapshots as one JSON file per session under a
// directory (<id>.json, the snapshot's stored form), so an idle-evicted
// session survives a daemon restart — and, because every save fsyncs
// the data before the rename and the directory after it, survives a
// power cut too, not just a process crash.
type DirStore struct {
	dir string
	// trace, when set, observes each step of the save sequence
	// (write-temp, sync-temp, close-temp, rename, sync-dir) so tests can
	// assert the durability ordering without instrumenting the kernel.
	trace func(op, path string)
}

// NewDirStore creates the directory if needed, fsyncs its parent so the
// creation itself is durable, and returns the store.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := syncDir(filepath.Dir(dir)); err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	return &DirStore{dir: dir}, nil
}

// syncDir fsyncs a directory so entries renamed or created in it are on
// disk, not just in the page cache.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *DirStore) traceOp(op, path string) {
	if s.trace != nil {
		s.trace(op, path)
	}
}

// path maps a session id onto a file name. Ids are restricted to a safe
// alphabet at open time (see validID), so the id is the file name.
func (s *DirStore) path(id string) string {
	return filepath.Join(s.dir, id+".json")
}

// Save implements SnapshotStore with write → fsync → rename → fsync-dir,
// so a crashed daemon never leaves a torn snapshot behind and a power
// cut after Save returns cannot roll the rename back. Without the data
// fsync before the rename, a crash could durably commit the new name to
// an empty file — atomic, but atomically wrong.
func (s *DirStore) Save(snap *Snapshot) error {
	data, err := encodeSnapshot(make([]byte, 0, snapshotSize(snap)), snap)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "."+snap.ID+"-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	s.traceOp("write-temp", tmp.Name())
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	s.traceOp("sync-temp", tmp.Name())
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	s.traceOp("close-temp", tmp.Name())
	if err := os.Rename(tmp.Name(), s.path(snap.ID)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	s.traceOp("rename", s.path(snap.ID))
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.traceOp("sync-dir", s.dir)
	return nil
}

// Load implements SnapshotStore. A file that exists but is not the id's
// session — it does not decode, has no checkpoint or names another id —
// is quarantined, renamed to <name>.corrupt so it never wedges its id,
// and reported as ErrSnapshotCorrupt.
func (s *DirStore) Load(id string) (*Snapshot, bool, error) {
	data, err := os.ReadFile(s.path(id))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	snap, err := decodeSnapshot(id, data)
	if err != nil {
		if qerr := quarantine(s.path(id)); qerr != nil {
			return nil, false, fmt.Errorf("serve: snapshot %s: %v (quarantine failed: %v)", id, err, qerr)
		}
		return nil, false, fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, id, err)
	}
	return snap, true, nil
}

// quarantine moves a corrupt file aside to <name>.corrupt, clobbering
// any previous quarantine of the same name.
func quarantine(path string) error {
	return os.Rename(path, path+".corrupt")
}

// Delete implements SnapshotStore.
func (s *DirStore) Delete(id string) error {
	err := os.Remove(s.path(id))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// validID reports whether a client-chosen session id is acceptable: short
// and from a file- and URL-safe alphabet (DirStore uses it verbatim as a
// file name).
func validID(id string) bool {
	if id == "" || len(id) > 64 || strings.HasPrefix(id, ".") {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
		default:
			return false
		}
	}
	return true
}
