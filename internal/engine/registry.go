package engine

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/stream"
)

// The algorithm registry mirrors the scenario registry: registering an
// AlgSpec is all it takes to make an algorithm available to scenarios,
// cmd/rightsize (-alg / -list-algs), live advisory sessions and the
// facade. Lookup normalises names, so the registry key ("alg-a"), the
// display name ("AlgorithmA") and convenient spellings ("algA") all
// resolve to the same entry.

var (
	algMu  sync.RWMutex
	algReg = map[string]AlgSpec{}
	algSeq []string // registration order of keys
)

// normalizeAlg canonicalises an algorithm name for lookup: lower-case,
// alphanumerics only ("alg-a", "algA" and "AlgorithmA(ε=1)"-style display
// names all collapse predictably).
func normalizeAlg(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		}
	}
	return string(out)
}

// RegisterAlgorithm adds an algorithm to the registry; the key must be
// unused (after normalisation) and the spec must be runnable.
func RegisterAlgorithm(s AlgSpec) error {
	if s.Key == "" || s.Name == "" {
		return fmt.Errorf("engine: algorithm needs a key and a display name")
	}
	if s.New == nil && s.Offline == nil {
		return fmt.Errorf("engine: algorithm %q needs a constructor or an offline producer", s.Key)
	}
	norm := normalizeAlg(s.Key)
	algMu.Lock()
	defer algMu.Unlock()
	if _, dup := algReg[norm]; dup {
		return fmt.Errorf("engine: algorithm %q already registered", s.Key)
	}
	algReg[norm] = s
	algSeq = append(algSeq, norm)
	return nil
}

// mustRegisterAlgorithm is RegisterAlgorithm for the stock library, where
// a duplicate is a programming error.
func mustRegisterAlgorithm(s AlgSpec) {
	if err := RegisterAlgorithm(s); err != nil {
		panic(err)
	}
}

// LookupAlgorithm retrieves a registered algorithm by key, display name or
// any normalisation-equivalent spelling ("algA" finds "alg-a").
func LookupAlgorithm(name string) (AlgSpec, bool) {
	norm := normalizeAlg(name)
	algMu.RLock()
	defer algMu.RUnlock()
	if s, ok := algReg[norm]; ok {
		return s, true
	}
	// Fall back to display names (e.g. "AlgorithmC(ε=1)").
	for _, s := range algReg {
		if normalizeAlg(s.Name) == norm {
			return s, true
		}
	}
	return AlgSpec{}, false
}

// Algorithms returns every registered algorithm in registration order
// (stock entries first, in their canonical line-up), so listings and
// README tables are deterministic.
func Algorithms() []AlgSpec {
	algMu.RLock()
	defer algMu.RUnlock()
	out := make([]AlgSpec, 0, len(algSeq))
	for _, k := range algSeq {
		out = append(out, algReg[k])
	}
	return out
}

// algorithmsByKey resolves keys that are guaranteed registered (stock
// line-ups); it panics on a miss, which is a programming error.
func algorithmsByKey(keys ...string) []AlgSpec {
	out := make([]AlgSpec, len(keys))
	for i, k := range keys {
		s, ok := LookupAlgorithm(k)
		if !ok {
			panic(fmt.Sprintf("engine: stock algorithm %q not registered", k))
		}
		out[i] = s
	}
	return out
}

// OpenSession resolves an algorithm by name and opens a live advisory
// session over the fleet template.
func OpenSession(name string, types []model.ServerType, opts stream.Options) (*stream.Session, error) {
	spec, ok := LookupAlgorithm(name)
	if !ok {
		return nil, fmt.Errorf("engine: unknown algorithm %q", name)
	}
	if !spec.Streamable() {
		return nil, fmt.Errorf("engine: algorithm %q is offline-only and cannot serve a live session", spec.Name)
	}
	alg, err := spec.New(types)
	if err != nil {
		return nil, err
	}
	if opts.Alg == "" {
		opts.Alg = spec.Key
	}
	return stream.New(alg, types, opts)
}

// ResumeSession rebuilds a live session from a checkpoint, resolving the
// algorithm recorded in it and replaying the log. The session takes
// ownership of cp's log (see stream.Resume).
func ResumeSession(cp *stream.Checkpoint, types []model.ServerType, opts stream.Options) (*stream.Session, error) {
	alg, opts, err := checkpointAlg(cp.Alg, types, opts)
	if err != nil {
		return nil, err
	}
	return stream.Resume(alg, types, opts, cp)
}

// RestoreSessionFromState rebuilds a live session of the named
// algorithm from its saved state alone, for callers that keep the
// session's log themselves (see stream.RestoreFromState).
func RestoreSessionFromState(name string, state []byte, types []model.ServerType, opts stream.Options) (*stream.Session, error) {
	alg, opts, err := checkpointAlg(name, types, opts)
	if err != nil {
		return nil, err
	}
	return stream.RestoreFromState(alg, types, opts, state)
}

// checkpointAlg constructs the streamable algorithm a checkpoint names
// and records its registry key in the session options.
func checkpointAlg(name string, types []model.ServerType, opts stream.Options) (core.Online, stream.Options, error) {
	spec, ok := LookupAlgorithm(name)
	if !ok {
		return nil, opts, fmt.Errorf("engine: checkpoint names unknown algorithm %q", name)
	}
	if !spec.Streamable() {
		return nil, opts, fmt.Errorf("engine: algorithm %q is offline-only and cannot serve a live session", spec.Name)
	}
	if opts.Alg == "" {
		opts.Alg = spec.Key
	}
	alg, err := spec.New(types)
	return alg, opts, err
}
