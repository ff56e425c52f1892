package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	rightsizing "repro"
	"repro/internal/serve"
)

// streamRun runs stream mode on stdin's lines, or on the replayed trace
// when stdin is empty, and returns its stdout and checkpoint file bytes.
func streamRun(t *testing.T, a streamArgs, stdin string) (out, cp []byte, err error) {
	t.Helper()
	a.replay = stdin == ""
	a.checkpoint = filepath.Join(t.TempDir(), "cp.json")
	var stdout, stderr bytes.Buffer
	if err := runStream(a, strings.NewReader(stdin), &stdout, &stderr); err != nil {
		return nil, nil, err
	}
	cp, err = os.ReadFile(a.checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	return stdout.Bytes(), cp, nil
}

// The in-process and -serve-url sessions run one stream loop: for every
// streamable stock algorithm and batch size they print the same
// advisory bytes and write the same checkpoint bytes, and a checkpoint
// taken on either path resumes on the other and continues identically.
func TestStreamInProcessMatchesServeURL(t *testing.T) {
	m := serve.NewManager(serve.Options{})
	defer m.Close()
	srv := httptest.NewServer(serve.NewHandler(m))
	defer srv.Close()

	for _, fleet := range []string{"quickstart", "diurnal", "onoff"} {
		sc, ok := rightsizing.LookupScenario(fleet)
		if !ok {
			t.Fatalf("scenario %q missing", fleet)
		}
		var prefix strings.Builder // the trace's first third, as stdin lines
		trace := sc.Instance(1).Lambda
		for _, lambda := range trace[:len(trace)/3] {
			prefix.WriteString(strconv.FormatFloat(lambda, 'g', -1, 64) + "\n")
		}
		for _, spec := range rightsizing.Algorithms() {
			if !spec.Streamable() {
				continue
			}
			for _, batch := range []int{1, 16} {
				name := fmt.Sprintf("%s/%s/batch=%d", fleet, spec.Key, batch)
				local := streamArgs{alg: spec.Key, fleet: fleet, seed: 1, batch: batch}
				remote := local
				remote.serveURL = srv.URL

				lOut, lCP, lErr := streamRun(t, local, "")
				rOut, rCP, rErr := streamRun(t, remote, "")
				if lErr != nil || rErr != nil {
					// An algorithm that does not apply to the fleet (LCP
					// needs d = 1) must be refused on both paths.
					if lErr == nil || rErr == nil {
						t.Fatalf("%s: in-process error %v, -serve-url error %v", name, lErr, rErr)
					}
					continue
				}
				if len(lOut) == 0 {
					t.Fatalf("%s: no advisories", name)
				}
				if !bytes.Equal(lOut, rOut) {
					t.Fatalf("%s: advisories differ:\nin-process:\n%s\n-serve-url:\n%s", name, lOut, rOut)
				}
				if !bytes.Equal(lCP, rCP) {
					t.Fatalf("%s: checkpoints differ:\nin-process:\n%s\n-serve-url:\n%s", name, lCP, rCP)
				}

				// Stop after the prefix on each path, then resume the
				// rest of the trace on the same and on the other path.
				_, lHalf, err := streamRun(t, local, prefix.String())
				if err != nil {
					t.Fatalf("%s: in-process prefix: %v", name, err)
				}
				_, rHalf, err := streamRun(t, remote, prefix.String())
				if err != nil {
					t.Fatalf("%s: -serve-url prefix: %v", name, err)
				}
				if !bytes.Equal(lHalf, rHalf) {
					t.Fatalf("%s: prefix checkpoints differ", name)
				}
				var wantOut []byte
				for i, c := range []struct {
					from string
					cp   []byte
					args streamArgs
				}{
					{"in-process -> in-process", lHalf, local},
					{"in-process -> -serve-url", lHalf, remote},
					{"-serve-url -> in-process", rHalf, local},
					{"-serve-url -> -serve-url", rHalf, remote},
				} {
					c.args.alg = ""
					c.args.resume = filepath.Join(t.TempDir(), "resume.json")
					if err := os.WriteFile(c.args.resume, c.cp, 0o644); err != nil {
						t.Fatal(err)
					}
					out, cp, err := streamRun(t, c.args, "")
					if err != nil {
						t.Fatalf("%s: resume %s: %v", name, c.from, err)
					}
					if i == 0 {
						wantOut = out
					} else if !bytes.Equal(out, wantOut) {
						t.Fatalf("%s: resume %s advises differently from in-process -> in-process:\n%s\nwant:\n%s", name, c.from, out, wantOut)
					}
					if !bytes.Equal(cp, lCP) {
						t.Fatalf("%s: resume %s ends on a different checkpoint than the uninterrupted run", name, c.from)
					}
				}
			}
		}
	}
}

// An explicit -alg alongside -resume is refused on both paths before
// any session is opened.
func TestStreamResumeRejectsAlg(t *testing.T) {
	for _, url := range []string{"", "http://127.0.0.1:1"} {
		a := streamArgs{alg: "alg-b", algSet: true, fleet: "quickstart", resume: "cp.json", serveURL: url, batch: 1}
		err := runStream(a, strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "-alg cannot be combined with -resume") {
			t.Fatalf("serve-url %q: got %v", url, err)
		}
	}
}

// An -input fleet with static costs streams identically on both paths;
// one with time-dependent costs streams in-process only, and -serve-url
// refuses it before opening a session.
func TestStreamInputFleets(t *testing.T) {
	m := serve.NewManager(serve.Options{})
	defer m.Close()
	srv := httptest.NewServer(serve.NewHandler(m))
	defer srv.Close()

	dir := t.TempDir()
	const static = `{"types":[{"name":"web","count":8,"switchCost":3,"maxLoad":1,"cost":{"kind":"affine","idle":1,"rate":1}}],"lambda":[2,5,7,3,1,6]}`
	const modulated = `{"types":[{"name":"web","count":8,"switchCost":3,"maxLoad":1,"cost":{"kind":"affine","idle":1,"rate":1},"scale":[1,2,1,2,1,2]}],"lambda":[2,5,7,3,1,6]}`
	for _, c := range []struct {
		name, json string
		servable   bool
	}{{"static", static, true}, {"modulated", modulated, false}} {
		input := filepath.Join(dir, c.name+".json")
		if err := os.WriteFile(input, []byte(c.json), 0o644); err != nil {
			t.Fatal(err)
		}
		local := streamArgs{alg: "alg-b", input: input, batch: 1}
		remote := local
		remote.serveURL = srv.URL
		lOut, lCP, err := streamRun(t, local, "")
		if err != nil || len(lOut) == 0 {
			t.Fatalf("%s: in-process: %v, %d output bytes", c.name, err, len(lOut))
		}
		rOut, rCP, err := streamRun(t, remote, "")
		if !c.servable {
			if err == nil || !strings.Contains(err.Error(), "-input fleet is not servable") {
				t.Fatalf("%s: -serve-url: got %v, want the not-servable error", c.name, err)
			}
			continue
		}
		if err != nil || !bytes.Equal(lOut, rOut) || !bytes.Equal(lCP, rCP) {
			t.Fatalf("%s: -serve-url: %v; advisories or checkpoint differ from in-process", c.name, err)
		}
	}
}
