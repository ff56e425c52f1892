package stream

import (
	"fmt"

	"repro/internal/costfn"
)

// Log is a replay log held in columns, the form a session keeps its log
// in: one demand per slot, and the slots' counts and cost functions in
// columns of their own that exist only once some slot carries them. A
// session fed demands alone so holds 8 bytes a slot, in an array with
// no pointers for the garbage collector to scan.
//
// Counts and Costs are each nil, or hold one entry per slot (nil for a
// slot that did not carry them); a column is created, back-filled with
// nils, by the first record that carries it.
type Log struct {
	Lambda []float64
	Counts [][]int
	Costs  [][]costfn.Func
}

// Len returns the number of records in the log.
func (l Log) Len() int { return len(l.Lambda) }

// at returns record i, sharing its counts and costs with the log.
func (l Log) at(i int) SlotRecord {
	r := SlotRecord{Lambda: l.Lambda[i]}
	if l.Counts != nil {
		r.Counts = l.Counts[i]
	}
	if l.Costs != nil {
		r.Costs = l.Costs[i]
	}
	return r
}

// Records returns the log as records (empty, not nil, for an empty log),
// sharing their counts and costs with the log.
func (l Log) Records() []SlotRecord {
	out := make([]SlotRecord, l.Len())
	for i := range out {
		out[i] = l.at(i)
	}
	return out
}

// Append appends r, sharing its counts and costs: a column is created
// when r is the first record that carries it (a non-nil slice).
func (l *Log) Append(r SlotRecord) {
	if r.Counts != nil && l.Counts == nil {
		l.Counts = make([][]int, len(l.Lambda), cap(l.Lambda))
	}
	if r.Costs != nil && l.Costs == nil {
		l.Costs = make([][]costfn.Func, len(l.Lambda), cap(l.Lambda))
	}
	l.Lambda = append(l.Lambda, r.Lambda)
	if l.Counts != nil {
		l.Counts = append(l.Counts, r.Counts)
	}
	if l.Costs != nil {
		l.Costs = append(l.Costs, r.Costs)
	}
}

// check reports columns of unequal length.
func (l *Log) check() error {
	n := len(l.Lambda)
	if l.Counts != nil && len(l.Counts) != n || l.Costs != nil && len(l.Costs) != n {
		return fmt.Errorf("stream: log columns hold %d demands, %d counts and %d costs", n, len(l.Counts), len(l.Costs))
	}
	return nil
}

// logOf copies records into columns, sharing their counts and costs.
func logOf(recs []SlotRecord) Log {
	l := Log{Lambda: make([]float64, 0, len(recs))}
	for _, r := range recs {
		l.Append(r)
	}
	return l
}
