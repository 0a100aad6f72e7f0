package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// TestGenerateDeterministic: a seed fixes every input byte for byte,
// and another seed changes them.
func TestGenerateDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := generate(w, 7, 3*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			b, err := generate(w, 7, 3*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			c, err := generate(w, 8, 3*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.due, b.due) {
				t.Fatal("same seed, different arrival schedules")
			}
			if w.rate > 0 && (len(a.due) == 0 || reflect.DeepEqual(a.due, c.due)) {
				t.Fatal("open loop arrival schedule empty or independent of the seed")
			}
			same := true
			for i := 0; i < 2*w.structures; i++ {
				ba, err := a.body(i)
				if err != nil {
					t.Fatal(err)
				}
				bb, _ := b.body(i)
				bc, _ := c.body(i)
				if !bytes.Equal(ba, bb) {
					t.Fatalf("job %d: same seed, different request bytes", i)
				}
				same = same && bytes.Equal(ba, bc)
			}
			if same {
				t.Fatal("requests do not depend on the seed")
			}
		})
	}
}

// TestArrivals: an open loop offers exactly rate*window jobs, in order,
// inside the window.
func TestArrivals(t *testing.T) {
	w, err := workloadByName("replay-exec")
	if err != nil {
		t.Fatal(err)
	}
	in, err := generate(w, 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(w.rate * 2); len(in.due) != want {
		t.Fatalf("%d arrivals, want %d", len(in.due), want)
	}
	for i, d := range in.due {
		if d < 0 || d >= 2*time.Second || (i > 0 && d < in.due[i-1]) {
			t.Fatalf("arrival %d at %v out of order or outside the window", i, d)
		}
	}
}
