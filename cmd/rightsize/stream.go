package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	rightsizing "repro"
	"repro/internal/serve"
)

// streamArgs is stream mode's command line.
type streamArgs struct {
	alg, fleet, input  string
	algSet             bool // -alg was given explicitly
	seed               int64
	replay             bool
	interval           time.Duration
	checkpoint, resume string
	serveURL           string
	batch              int
}

// streamSession is a live advisory session as the stream loop drives
// it, in-process (localSession) or on a rightsized daemon
// (remoteSession).
type streamSession interface {
	// push feeds one batch of slots and returns the advisories of the
	// slots it decided, valid until the next push.
	push(slots []rightsizing.SlotInput) ([]rightsizing.Advisory, error)
	// checkpoint returns the session's replay checkpoint.
	checkpoint() (*rightsizing.SessionCheckpoint, error)
	// close ends the session and returns the advisories it still held
	// plus its summary line.
	close() ([]rightsizing.Advisory, string, error)
}

// runStream drives a live advisory session: demand arrives on stdin (one
// value per line) or from the replayed trace, is fed in batches of
// a.batch slots, and one JSON advisory line per decided slot goes to
// stdout; advisories are identical for any batch size and on either
// session. The checkpoint is taken before the session closes.
func runStream(a streamArgs, stdin io.Reader, stdout, stderr io.Writer) error {
	if a.batch < 1 {
		return fmt.Errorf("-batch must be >= 1, got %d", a.batch)
	}
	var cp *rightsizing.SessionCheckpoint
	if a.resume != "" {
		// The checkpoint names the algorithm; an explicit -alg alongside
		// -resume is a conflict, not a silent override.
		if a.algSet {
			return errors.New("-alg cannot be combined with -resume: the checkpoint determines the algorithm")
		}
		data, err := os.ReadFile(a.resume)
		if err != nil {
			return err
		}
		cp = new(rightsizing.SessionCheckpoint)
		if err := json.Unmarshal(data, cp); err != nil {
			return err
		}
	}
	// The fleet template and replay trace: -input's instance, or the
	// -fleet scenario's at -seed.
	var ins *rightsizing.Instance
	var err error
	if a.input != "" {
		ins, err = readInstance(a.input)
	} else if sc, ok := rightsizing.LookupScenario(a.fleet); ok {
		ins = sc.Instance(a.seed)
	} else {
		err = fmt.Errorf("unknown fleet scenario %q; -list shows the registry", a.fleet)
	}
	if err != nil {
		return err
	}
	var sess streamSession
	var fed int
	if a.serveURL != "" {
		sess, fed, err = openRemote(a, ins, cp, stderr)
	} else {
		sess, fed, err = openLocal(a, ins.Types, cp, stderr)
	}
	if err != nil {
		return err
	}

	enc := json.NewEncoder(stdout)
	emit := func(advs []rightsizing.Advisory, err error) error {
		for i := 0; i < len(advs) && err == nil; i++ {
			err = enc.Encode(advs[i])
		}
		return err
	}
	pending := make([]rightsizing.SlotInput, 0, a.batch)
	feed := func(lambda float64) error {
		if pending = append(pending, rightsizing.SlotInput{Lambda: lambda}); len(pending) < a.batch {
			return nil
		}
		advs, err := sess.push(pending)
		pending = pending[:0]
		return emit(advs, err)
	}

	if a.replay {
		// A resumed session already holds its checkpointed prefix; replay
		// only the remainder of the trace so slots are not fed twice.
		for _, lambda := range ins.Lambda[min(fed, len(ins.Lambda)):] {
			if err := feed(lambda); err != nil {
				return err
			}
			if a.interval > 0 && len(pending) == 0 { // a batch just went out
				time.Sleep(a.interval)
			}
		}
	} else {
		scan := bufio.NewScanner(stdin)
		for scan.Scan() {
			line := strings.TrimSpace(scan.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			lambda, err := strconv.ParseFloat(line, 64)
			if err != nil {
				return fmt.Errorf("bad demand line %q: %v", line, err)
			}
			if err := feed(lambda); err != nil {
				return err
			}
		}
		if err := scan.Err(); err != nil {
			return err
		}
	}
	if len(pending) > 0 {
		if err := emit(sess.push(pending)); err != nil {
			return err
		}
	}

	if a.checkpoint != "" {
		cp, err := sess.checkpoint()
		if err != nil {
			return err
		}
		// One file format on both paths, so a checkpoint taken on either
		// resumes on the other.
		data, err := json.MarshalIndent(cp, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(a.checkpoint, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "rightsize: checkpoint written to %s\n", a.checkpoint)
	}
	advs, summary, err := sess.close()
	if err := emit(advs, err); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "rightsize: %s\n", summary)
	return nil
}

// localSession is an in-process session. It takes -input fleets with
// time-dependent costs.
type localSession struct {
	sess *rightsizing.Session
	advs []rightsizing.Advisory
}

// openLocal opens (or with cp, resumes) an in-process session and
// returns it with the number of slots it already holds.
func openLocal(a streamArgs, types []rightsizing.ServerType, cp *rightsizing.SessionCheckpoint, stderr io.Writer) (*localSession, int, error) {
	var sess *rightsizing.Session
	var err error
	if cp == nil {
		sess, err = rightsizing.OpenSession(a.alg, types, rightsizing.SessionOptions{})
	} else if sess, err = rightsizing.ResumeSession(cp, types, rightsizing.SessionOptions{}); err == nil {
		fmt.Fprintf(stderr, "rightsize: resumed %s at slot %d (cum cost %.4f)\n",
			sess.Name(), sess.Fed(), sess.CumCost())
	}
	if err != nil {
		return nil, 0, err
	}
	return &localSession{sess: sess, advs: make([]rightsizing.Advisory, a.batch)}, sess.Fed(), nil
}

func (s *localSession) push(slots []rightsizing.SlotInput) ([]rightsizing.Advisory, error) {
	n, err := s.sess.PushBatch(slots, s.advs)
	return s.advs[:n], err
}

func (s *localSession) checkpoint() (*rightsizing.SessionCheckpoint, error) {
	return s.sess.Checkpoint(), nil
}

func (s *localSession) close() ([]rightsizing.Advisory, string, error) {
	advs, err := s.sess.Close()
	return advs, fmt.Sprintf("%s advised %d slots, total cost %.4f",
		s.sess.Name(), s.sess.Decided(), s.sess.CumCost()), err
}

// remoteSession is a session on a rightsized daemon, driven through its
// HTTP API. A push of one slot travels in the single-slot wire form
// (object in, object out), a longer one as JSON arrays: one round trip
// per push either way.
type remoteSession struct {
	cl   serve.Client
	path string // the session's URL path
}

// openRemote opens (or with cp, resumes) a session on the daemon at
// a.serveURL and returns it with the number of slots it already holds.
// The daemon rebuilds the fleet from its JSON description, so -input
// fleets EncodeFleet cannot describe are refused.
func openRemote(a streamArgs, ins *rightsizing.Instance, cp *rightsizing.SessionCheckpoint, stderr io.Writer) (*remoteSession, int, error) {
	s := &remoteSession{cl: serve.Client{Base: strings.TrimRight(a.serveURL, "/")}}
	req := serve.OpenRequest{Alg: a.alg, Checkpoint: cp}
	if cp != nil {
		req.Alg = ""
	}
	if a.input != "" {
		types, err := rightsizing.EncodeFleet(ins.Types)
		if err != nil {
			return nil, 0, fmt.Errorf("-input fleet is not servable: %v (use a -fleet scenario for time-dependent templates)", err)
		}
		req.Fleet.Types = types
	} else {
		req.Fleet.Scenario, req.Fleet.Seed = a.fleet, a.seed
	}
	var info serve.SessionInfo
	if err := s.cl.Call("POST", "/v1/sessions", req, &info); err != nil {
		return nil, 0, err
	}
	s.path = "/v1/sessions/" + info.ID
	if cp != nil {
		fmt.Fprintf(stderr, "rightsize: resumed %s on %s at slot %d (cum cost %.4f)\n",
			info.Name, s.cl.Base, info.Fed, info.CumCost)
	}
	return s, info.Fed, nil
}

func (s *remoteSession) push(slots []rightsizing.SlotInput) ([]rightsizing.Advisory, error) {
	reqs := make([]serve.PushRequest, len(slots))
	for i, in := range slots {
		reqs[i].Lambda = in.Lambda
	}
	var results []serve.PushResult
	var err error
	if len(reqs) == 1 {
		results = make([]serve.PushResult, 1)
		err = s.cl.Call("POST", s.path+"/push", reqs[0], &results[0])
	} else {
		err = s.cl.Call("POST", s.path+"/push", reqs, &results)
	}
	var advs []rightsizing.Advisory
	for _, res := range results {
		if res.Decided {
			advs = append(advs, *res.Advisory)
		}
	}
	return advs, err
}

func (s *remoteSession) checkpoint() (*rightsizing.SessionCheckpoint, error) {
	var snap serve.Snapshot
	if err := s.cl.Call("POST", s.path+"/checkpoint", nil, &snap); err != nil {
		return nil, err
	}
	return snap.Checkpoint, nil
}

func (s *remoteSession) close() ([]rightsizing.Advisory, string, error) {
	var closed serve.CloseResult
	if err := s.cl.Call("DELETE", s.path, nil, &closed); err != nil {
		return nil, "", err
	}
	return closed.Advisories, fmt.Sprintf("%s advised %d slots via %s, total cost %.4f",
		closed.Info.Name, closed.Info.Decided, s.cl.Base, closed.Info.CumCost), nil
}
