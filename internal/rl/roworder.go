package rl

import "sort"

// RowOrder answers repeated ArgmaxRect queries over a shrinking set of
// rows × every column of a rectangle table in amortised O(1).
//
// Build sorts rows by their cached row maximum (descending, ties by
// lowest task). While the table takes no write, those maxima are
// constants, so the first row of the order that is still live is the
// row ArgmaxRect's task-major scan settles on, and the row's cached
// argmax column is its first-attaining VM. A cursor moves past rows
// that are no longer live; rows never come back to life, so each one
// is skipped once.
//
// The Q-learning bootstrap asks exactly this question once per task
// completion: within an episode TD writes are buffered until the
// episode drains, and the pending set only shrinks.
type RowOrder struct {
	t      *Table
	writes uint64 // t.writes at Build; any later store voids the order
	pos    int
	byMax  rowsByMax
}

// rowsByMax sorts task rows by (cached row maximum desc, task asc).
type rowsByMax struct {
	rows   []int
	rowMax []float64
}

func (s *rowsByMax) Len() int      { return len(s.rows) }
func (s *rowsByMax) Swap(i, j int) { s.rows[i], s.rows[j] = s.rows[j], s.rows[i] }
func (s *rowsByMax) Less(i, j int) bool {
	a, b := s.rowMax[s.rows[i]], s.rowMax[s.rows[j]]
	if a != b {
		return a > b
	}
	return s.rows[i] < s.rows[j]
}

// Reset empties the order and makes room for n rows, so a later Build
// of up to n rows does not allocate.
func (o *RowOrder) Reset(n int) {
	o.t = nil
	o.pos = 0
	if cap(o.byMax.rows) < n {
		o.byMax.rows = make([]int, 0, n)
	}
	o.byMax.rows = o.byMax.rows[:0]
	o.byMax.rowMax = nil
}

// Build orders tasks for later Argmax calls against t. Call it right
// after ArgmaxRect or MaxRect(tasks, vms) on t, which leaves every
// row of tasks fully materialised with a valid row-max cache. Build
// reports false, leaving the order empty, unless t is
// rectangle-backed, vms is exactly [0, numVMs) in order, and every
// task is a cached in-rectangle row.
func (o *RowOrder) Build(t *Table, tasks, vms []int) bool {
	o.Reset(0)
	if t.bands == nil || len(vms) != t.numVMs {
		return false
	}
	for i, vm := range vms {
		if vm != i {
			return false
		}
	}
	for _, task := range tasks {
		if task < 0 || task >= t.numTasks || !t.rowOK[task] || int(t.rowN[task]) != t.numVMs {
			return false
		}
	}
	o.byMax.rows = append(o.byMax.rows, tasks...)
	o.byMax.rowMax = t.rowMax
	sort.Sort(&o.byMax)
	o.t, o.writes = t, t.writes
	return true
}

// Argmax returns what t.ArgmaxRect(live rows, [0, numVMs)) would: the
// first key attaining the maximum over the built rows that live marks
// (indexed by task) × every column, and that value. live must only
// ever lose rows after Build. ok is false when there is no order to
// answer from (none built, the table was written since, or no built
// row is live); the caller then scans.
func (o *RowOrder) Argmax(live []bool) (k Key, v float64, ok bool) {
	t := o.t
	if t == nil || t.writes != o.writes {
		return Key{}, 0, false
	}
	rows := o.byMax.rows
	for o.pos < len(rows) && !live[rows[o.pos]] {
		o.pos++
	}
	if o.pos == len(rows) {
		return Key{}, 0, false
	}
	task := rows[o.pos]
	return Key{Task: task, VM: int(t.rowArg[task])}, t.rowMax[task], true
}
