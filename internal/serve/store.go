package serve

import (
	"bytes"
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

// decodeFleet decodes a fleet descriptor's JSON into dst as
// json.Unmarshal does, or with strict set as a json.Decoder that
// disallows unknown fields does. The compact form json.Marshal writes
// of a scenario fleet is read without reflection
// (wire.ReadScenarioFleet); any other goes to encoding/json, which also
// merges duplicate members.
func decodeFleet(data []byte, dst *FleetJSON, strict bool) error {
	if scenario, seed, ok := wire.ReadScenarioFleet(data); ok {
		if scenario != "" {
			dst.Scenario = scenario
		}
		if seed != 0 {
			dst.Seed = seed
		}
		return nil
	}
	if !strict {
		return json.Unmarshal(data, dst)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
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
		return sc.Fleet(f.Seed), nil
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
// State and LogSum are store-internal. State is the session's saved
// decision state (stream.Session.AppendState), which lets a resume skip
// replaying the log. LogSum seals the log's stored bytes to the state
// (wire.LogSpan.Seal), the one thing that binds the two: when it
// matches, a resume restores the state alone and keeps the log as the
// bytes it read, decoding none of it; otherwise — or should the state
// not restore — it decodes the log and replays it. Both are absent for
// algorithms without a state codec, and neither leaves the daemon — the
// checkpoint endpoint strips them, and client-supplied checkpoints
// always replay.
//
// A snapshot the manager saves, or a store loads with a matching sum,
// holds its log as those stored bytes instead: Checkpoint is nil, and
// Log decodes the log on demand.
type Snapshot struct {
	ID         string             `json:"id"`
	Fleet      FleetJSON          `json:"fleet"`
	Checkpoint *stream.Checkpoint `json:"checkpoint"`
	State      []byte             `json:"state,omitempty"`
	LogSum     uint32             `json:"log_sum,omitempty"`

	log *storedLog // the log as stored bytes, when Checkpoint is nil
}

// storedLog is a snapshot's replay log held as its stored bytes: the
// span a resume read (or an empty one) and the records encoded past it.
type storedLog struct {
	alg  string
	span wire.LogSpan
	tail []byte
}

// Log returns the snapshot's whole replay log, decoding it into columns
// when the snapshot holds it as stored bytes.
func (s *Snapshot) Log() (*stream.Checkpoint, error) {
	lg := s.log
	if lg == nil {
		return s.Checkpoint, nil
	}
	b := make([]byte, 0, len(lg.span.Bytes)+len(lg.tail)+1)
	l, err := wire.DecodeLog(append(append(append(b, lg.span.Bytes...), lg.tail...), ']'))
	if err != nil {
		return nil, err
	}
	return &stream.Checkpoint{Alg: lg.alg, Log: l}, nil
}

// alg returns the algorithm the snapshot's log names.
func (s *Snapshot) alg() string {
	if s.log != nil {
		return s.log.alg
	}
	return s.Checkpoint.Alg
}

// fed returns the number of slots in the snapshot's log: for a log held
// as stored bytes, the count its sealed state records, or the decoded
// log's length when the state does not load (as for a state an older
// version wrote, which a resume replays).
func (s *Snapshot) fed() (int, error) {
	if s.log == nil {
		return s.Checkpoint.Len(), nil
	}
	if fed, err := stream.StateFed(s.State); err == nil {
		return fed, nil
	}
	cp, err := s.Log()
	if err != nil {
		return 0, err
	}
	return cp.Len(), nil
}

// encodeSnapshot appends snap's stored form to dst: exactly the bytes
// json.Marshal produces of the snapshot with its whole log decoded.
func encodeSnapshot(dst []byte, snap *Snapshot) ([]byte, error) {
	if snap.log == nil {
		return appendDecoded(dst, snap)
	}
	pieces, err := storedPieces(snap)
	for _, p := range pieces {
		dst = append(dst, p...)
	}
	return dst, err
}

// appendDecoded appends the stored form of a snapshot whose log is
// decoded.
func appendDecoded(dst []byte, snap *Snapshot) ([]byte, error) {
	fleet, err := json.Marshal(&snap.Fleet)
	if err != nil {
		return dst, err
	}
	return wire.AppendSnapshot(dst, &wire.Snapshot{ID: snap.ID, Fleet: fleet, Checkpoint: snap.Checkpoint, State: snap.State, LogSum: snap.LogSum})
}

// storedPieces returns snap's stored form as pieces to write in order.
// A log held as stored bytes is spliced between the snapshot's head and
// trailer as it is, not copied, so saving an aged session encodes only
// the records fed since its resume.
func storedPieces(snap *Snapshot) ([][]byte, error) {
	lg := snap.log
	if lg == nil {
		data, err := appendDecoded(make([]byte, 0, snapshotSize(snap)), snap)
		return [][]byte{data}, err
	}
	fleet, err := json.Marshal(&snap.Fleet)
	if err != nil {
		return nil, err
	}
	// Both ends are sized once (a string escapes to at most 6 bytes a
	// byte), so what a save allocates does not vary with the log.
	head := make([]byte, 0, 64+len(fleet)+6*(len(snap.ID)+len(lg.alg)))
	trailer := make([]byte, 0, wire.SnapshotTrailerLen(len(snap.State)))
	return [][]byte{
		wire.AppendSnapshotHead(head, snap.ID, fleet, lg.alg),
		lg.span.Bytes,
		lg.tail,
		wire.AppendSnapshotTrailer(trailer, snap.State, snap.LogSum),
	}, nil
}

// snapshotSize bounds the stored size of snap from above for the usual
// snapshots, so a save encodes into one buffer. A decoded slot is given
// 32 bytes and takes about 26, the base64 state is given twice its raw
// size and takes 4/3 of it, and 256 bytes cover the id, a scenario fleet
// and the log sum; an inline fleet may outgrow them, costing a regrowth.
func snapshotSize(snap *Snapshot) int {
	n := 256 + 2*len(snap.State)
	switch {
	case snap.log != nil:
		n += len(snap.log.span.Bytes) + len(snap.log.tail)
	case snap.Checkpoint != nil:
		n += 32 * snap.Checkpoint.Len()
	}
	return n
}

// decodeSnapshot decodes the stored form of session id. A snapshot
// whose log sum matches is read without decoding its log (see
// Snapshot); any other is decoded in full. A snapshot that does not
// decode, has no checkpoint or names another session is not id's
// session and reports an error; the stores turn it into
// ErrSnapshotCorrupt, so the id reads as a clean miss instead of
// failing every request for it.
func decodeSnapshot(id string, data []byte) (*Snapshot, error) {
	if ss, ok := wire.ReadSealedSnapshot(data); ok && ss.ID == id {
		snap := &Snapshot{ID: ss.ID, State: ss.State, LogSum: ss.Log.Seal(nil, ss.State), log: &storedLog{alg: ss.Alg, span: ss.Log}}
		if err := decodeFleet(ss.Fleet, &snap.Fleet, false); err == nil {
			return snap, nil
		}
	}
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
	snap := &Snapshot{ID: ws.ID, Checkpoint: ws.Checkpoint, State: ws.State, LogSum: ws.LogSum}
	if ws.Fleet != nil {
		if err := decodeFleet(ws.Fleet, &snap.Fleet, false); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// SnapshotStore persists evicted sessions. Implementations must be safe
// for concurrent use; Load reports ok=false for unknown ids and
// ErrSnapshotCorrupt for a stored snapshot that is not the id's session.
// A snapshot handed to Save may hold its log as stored bytes (see
// Snapshot); a store that keeps its own format reads it through Log.
type SnapshotStore interface {
	Save(snap *Snapshot) error
	Load(id string) (snap *Snapshot, ok bool, err error)
	Delete(id string) error
}

// MemStore is the in-memory SnapshotStore: eviction sheds a live session
// down to its replay log and saved state, and snapshots die with the
// process. It keeps each snapshot in its stored form, the same bytes
// DirStore writes, so both stores exercise one codec. A stored form is
// never written to after it is saved, so a loaded snapshot's log may
// alias it.
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
// creation itself is durable, and returns the store. Temp files a save
// left behind — a crash between creating one and renaming it over its
// snapshot orphans it — are removed first.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := syncDir(filepath.Dir(dir)); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.Type().IsRegular() && isSaveTemp(e.Name()) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
		}
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	return &DirStore{dir: dir}, nil
}

// isSaveTemp reports whether a file name is one Save's temp files take,
// .<id>-<random digits>. No snapshot is named so: ids never start with
// a dot (validID).
func isSaveTemp(name string) bool {
	i := strings.LastIndexByte(name, '-')
	if !strings.HasPrefix(name, ".") || i < 0 || i == len(name)-1 || !validID(name[1:i]) {
		return false
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
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
// an empty file — atomic, but atomically wrong. A log held as stored
// bytes is written straight from them (storedPieces).
func (s *DirStore) Save(snap *Snapshot) error {
	pieces, err := storedPieces(snap)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "."+snap.ID+"-*")
	if err != nil {
		return err
	}
	for _, p := range pieces {
		if _, err := tmp.Write(p); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
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
