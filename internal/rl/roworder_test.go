package rl

import (
	"math"
	"math/rand"
	"testing"
)

// TestRowOrderMatchesArgmaxRect is RowOrder's contract, checked over
// random table shapes and band sizes, tie-heavy values (including
// both signed zeros), rows partly materialised before the first scan,
// and random completion orders: after the scan and Build, each Argmax
// over the still-live rows returns bit-for-bit the key and value that
// MaxRect and ArgmaxRect return over live rows × every VM on a twin
// table fed the same operations, and both tables end up identical.
func TestRowOrderMatchesArgmaxRect(t *testing.T) {
	shapes := rand.New(rand.NewSource(13))
	ties := []float64{0, math.Copysign(0, -1), 0.25, 0.5, 1, -1}
	for iter := 0; iter < 300; iter++ {
		numTasks := 1 + shapes.Intn(120)
		numVMs := 1 + shapes.Intn(40)
		shift := uint(shapes.Intn(6))
		initSpan := []float64{0, 1, 1}[shapes.Intn(3)]
		seed := shapes.Int63()
		mk := func() *Table { return newRect(numTasks, numVMs, shift, rand.New(rand.NewSource(seed)), initSpan) }
		scan, ord := mk(), mk()
		ops := rand.New(rand.NewSource(seed ^ 0x5eed))

		// Earlier episodes: learned values (tie-heavy, or drawn from a
		// coarse grid) and lazily drawn ones, leaving rows partly
		// materialised.
		for n := ops.Intn(numTasks * numVMs); n > 0; n-- {
			k := Key{Task: ops.Intn(numTasks), VM: ops.Intn(numVMs)}
			switch ops.Intn(3) {
			case 0:
				v := ties[ops.Intn(len(ties))]
				scan.Set(k, v)
				ord.Set(k, v)
			case 1:
				v := float64(ops.Intn(4)) / 4
				scan.Set(k, v)
				ord.Set(k, v)
			default:
				scan.Value(k)
				ord.Value(k)
			}
		}

		live := make([]bool, numTasks)
		var tasks []int
		for task := range live {
			if ops.Intn(4) > 0 {
				live[task] = true
				tasks = append(tasks, task)
			}
		}
		vms := make([]int, numVMs)
		for i := range vms {
			vms[i] = i
		}
		var o RowOrder
		o.Reset(numTasks)
		if len(tasks) == 0 {
			continue
		}
		k0, v0 := ord.ArgmaxRect(tasks, vms)
		if !o.Build(ord, tasks, vms) {
			t.Fatalf("iter %d: Build refused a fully scanned %dx%d table", iter, numTasks, numVMs)
		}
		if sk, sv := scan.ArgmaxRect(tasks, vms); sk != k0 || math.Float64bits(sv) != math.Float64bits(v0) {
			t.Fatalf("iter %d: twin tables disagree on the first scan", iter)
		}

		// Complete rows in random order, one or more between queries.
		order := ops.Perm(len(tasks))
		for i := 0; i < len(order); {
			for step := 1 + ops.Intn(3); step > 0 && i < len(order); step-- {
				live[tasks[order[i]]] = false
				i++
			}
			var rows []int
			for task, ok := range live {
				if ok {
					rows = append(rows, task)
				}
			}
			k, v, ok := o.Argmax(live)
			if len(rows) == 0 {
				if ok {
					t.Fatalf("iter %d: Argmax answered with no live row", iter)
				}
				break
			}
			wk, wv := scan.ArgmaxRect(rows, vms)
			mv := scan.MaxRect(rows, vms)
			if !ok || k != wk || math.Float64bits(v) != math.Float64bits(wv) || math.Float64bits(v) != math.Float64bits(mv) {
				t.Fatalf("iter %d (%dx%d, shift %d): Argmax = %v %v %v, ArgmaxRect = %v %v, MaxRect = %v",
					iter, numTasks, numVMs, shift, k, v, ok, wk, wv, mv)
			}
		}
		if a, b := scan.Snapshot(), ord.Snapshot(); !sameEntries(a, b) {
			t.Fatalf("iter %d: tables diverged", iter)
		}
	}
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// TestRowOrderRefusesAndExpires covers the cases where the order must
// not answer: shapes Build cannot serve, and any store after Build.
func TestRowOrderRefusesAndExpires(t *testing.T) {
	const numTasks, numVMs = 6, 4
	all := []int{0, 1, 2, 3}
	tasks := []int{0, 2, 5}
	live := []bool{true, false, true, false, false, true}
	mk := func() *Table { return NewDenseTable(numTasks, numVMs, rand.New(rand.NewSource(1)), 1) }
	var o RowOrder

	sparse := NewTable(rand.New(rand.NewSource(1)), 1)
	sparse.ArgmaxRect(tasks, all)
	if o.Build(sparse, tasks, all) {
		t.Fatal("Build accepted a sparse table")
	}
	tab := mk()
	tab.ArgmaxRect(tasks, []int{0, 1, 2})
	if o.Build(tab, tasks, []int{0, 1, 2}) {
		t.Fatal("Build accepted a column subset")
	}
	if o.Build(tab, tasks, []int{1, 0, 2, 3}) {
		t.Fatal("Build accepted permuted columns")
	}
	if o.Build(tab, tasks, all) {
		t.Fatal("Build accepted rows the scan has not cached")
	}
	if _, _, ok := o.Argmax(live); ok {
		t.Fatal("a refused Build left an order behind")
	}

	for _, write := range []func(*Table){
		func(t *Table) { t.Set(Key{Task: 4, VM: 1}, 0.5) },
		func(t *Table) { t.TDUpdate(Key{Task: 1, VM: 0}, 0.5, 1, 1, 0) },
		func(t *Table) { t.Add(Key{Task: 0, VM: 3}, 0.1) },
	} {
		tab := mk()
		tab.ArgmaxRect(tasks, all)
		if !o.Build(tab, tasks, all) {
			t.Fatal("Build refused a scanned table")
		}
		if _, _, ok := o.Argmax(live); !ok {
			t.Fatal("fresh order did not answer")
		}
		write(tab)
		if _, _, ok := o.Argmax(live); ok {
			t.Fatal("order answered after a store")
		}
	}
	tab = mk()
	tab.ArgmaxRect(tasks, all)
	o.Build(tab, tasks, all)
	o.Reset(numTasks)
	if _, _, ok := o.Argmax(live); ok {
		t.Fatal("order answered after Reset")
	}
}
