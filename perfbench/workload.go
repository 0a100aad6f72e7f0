package main

import (
	"fmt"
	"time"
)

// workload is one traffic mix: what each job asks the daemon for and
// how jobs arrive.
type workload struct {
	name string

	// rate > 0 makes an open loop: jobs are due at seeded Poisson
	// arrival times of this mean rate (jobs/s), whether or not earlier
	// ones have finished. rate == 0 makes a closed loop of clients
	// callers, each submitting its next job once its last one is done.
	rate    float64
	clients int

	// structures is the number of distinct workflow structures the
	// jobs cycle through; each is one Q-table cache key.
	structures int
	nodes      int // synthetic Montage size
	preset     string
	vcpus      int
	episodes   int // 0 for replay jobs, which submit their own plan

	replay  bool   // submit an inline DAX document plus a HEFT plan
	execute bool   // run the plan on the exec master
	market  string // spot-market regime for execution ("" for none)

	// limit is the latency a job must meet to count towards goodput.
	limit time.Duration
}

// scrapeEvery is the /metrics scrape period: four a second give
// scrape_p50_ms enough samples.
const scrapeEvery = 250 * time.Millisecond

// The open-loop rate is about 60% of the rate the daemon kept up with
// at the commit that introduced this benchmark, on a 2-vCPU x86-64
// host (see README.md). Why each workload exists is recorded in
// BENCHMARK.json and README.md.
var workloads = []*workload{
	// Learning is ~90% of each job, so episode-loop costs show; the
	// closed loop keeps the queue empty.
	{
		name:       "learn-large",
		clients:    2,
		structures: 4,
		nodes:      1000,
		preset:     "scaled",
		vcpus:      256,
		episodes:   5,
		limit:      time.Second,
	},
	// Clients bring their own DAX document and HEFT plan: large writes,
	// one replay and a market execution; learning is bypassed.
	{
		name:       "replay-exec",
		rate:       30,
		structures: 8,
		nodes:      200,
		preset:     "table1",
		vcpus:      64,
		replay:     true,
		execute:    true,
		market:     "hostile",
		limit:      500 * time.Millisecond,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
