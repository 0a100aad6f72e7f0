package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"reassign/internal/schedd"
)

// TestLoopsAgainstSchedd drives every workload's loop briefly against
// an in-process schedd and expects every job to finish and pass its
// checks.
func TestLoopsAgainstSchedd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s := schedd.New(schedd.Config{})
			s.Start()
			srv := httptest.NewServer(s.Handler())
			c := newClient(strings.TrimPrefix(srv.URL, "http://"))
			defer func() {
				c.close()
				srv.Close()
				s.Shutdown(context.Background())
			}()
			window := 300 * time.Millisecond
			in, err := generate(w, 5, window)
			if err != nil {
				t.Fatal(err)
			}
			if err := runJobs(c, in, 0, in.warmups()); err != nil {
				t.Fatal(err)
			}
			var samples []*sample
			if w.rate > 0 {
				samples = runOpen(c, in, in.warmups(), time.Now(), 0, window)
			} else {
				samples = runClosed(c, in, in.warmups(), time.Now(), window)
			}
			if len(samples) == 0 {
				t.Fatal("no jobs measured")
			}
			for _, s := range samples {
				if s.Kind != "" {
					t.Errorf("job %d: %s: %s", s.Index, s.Kind, s.Err)
				}
			}
		})
	}
}

// TestReplay runs the traced replay's concurrent pipeline and its
// probe briefly on every workload, and expects each layer call of the
// workload's pipeline to be timed on measured jobs, and no other.
func TestReplay(t *testing.T) {
	common := []string{"api.decode", "api.fleet_build", "api.signature", "api.status_encode"}
	pipeline := map[string][]string{
		"learn-large": append([]string{"api.workflow_build", "rl.table_copy", "core.new_learner", "core.learn"}, common...),
		"replay-exec": append([]string{"dax.read", "api.plan_validate", "sim.replay", "market.generate", "exec.run"}, common...),
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := generate(w, 5, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			l := newLedger(context.Background(), in)
			if err := l.replay(0, time.Second); err != nil {
				t.Fatal(err)
			}
			if len(l.jobs) <= in.warmups() {
				t.Fatalf("replayed %d jobs, no measured one", len(l.jobs))
			}
			if err := l.probe(); err != nil {
				t.Fatal(err)
			}
			timed := map[string]bool{}
			for _, s := range l.t.spans {
				if s.Job >= in.warmups() {
					timed[s.Name] = true
				}
			}
			want := map[string]bool{}
			for _, name := range pipeline[w.name] {
				want[name] = true
				if !timed[name] {
					t.Errorf("%s is not timed", name)
				}
			}
			for _, name := range layerSpans {
				if timed[name] && !want[name] {
					t.Errorf("%s is timed, but not in the pipeline", name)
				}
			}
			simTimed := false
			for _, jt := range l.jobs {
				simTimed = simTimed || jt.SimEpisode > 0
			}
			if learns := w.episodes > 0; simTimed != learns {
				t.Errorf("sim.episode_us probed: %v, workload learns: %v", simTimed, learns)
			}
		})
	}
}
