package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// The metric names and units below are the ones BENCHMARK.json lists;
// a test keeps the two in step.

// endToEnd are the metrics of an untraced run, in print order.
var endToEnd = []struct{ name, unit string }{
	{"latency_p50_ms", "ms"},
	{"goodput_jobs_s", "1/s"},
	{"submit_p50_ms", "ms"},
	{"submit_p99_ms", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"rss_peak_mb", "MB"},
	{"plan_makespan_s", "s"},
	{"scrape_p50_ms", "ms"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run, in print order. The first
// six are end-to-end figures that are zero or undefined on some
// workload, or too noisy to bound (see README.md).
var perLayer = []struct{ name, unit string }{
	{"latency_p95_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"fail_ratio", "ratio"},
	{"episodes_s", "1/s"},
	{"exec_makespan_s", "s"},
	{"cost_usd", "USD"},
	{"schedd.queue_wait_p50_ms", "ms"},
	{"schedd.queue_wait_p99_ms", "ms"},
	{"schedd.run_p50_ms", "ms"},
	{"schedd.cache_hit_ratio", "ratio"},
	{"schedd.engine_reuse_ratio", "ratio"},
	{"api.decode_ms", "ms"},
	{"api.workflow_build_ms", "ms"},
	{"dax.read_ms", "ms"},
	{"api.fleet_build_ms", "ms"},
	{"api.plan_validate_ms", "ms"},
	{"api.signature_ms", "ms"},
	{"api.status_rtt_p50_ms", "ms"},
	{"api.status_bytes", "bytes"},
	{"api.status_encode_ms", "ms"},
	{"rl.table_copy_ms", "ms"},
	{"core.new_learner_ms", "ms"},
	{"core.learn_ms", "ms"},
	{"core.episode_us", "us"},
	{"core.extract_ms", "ms"},
	{"core.decide_ns", "ns"},
	{"core.decisions_per_episode", "count"},
	{"sim.episode_us", "us"},
	{"sim.replay_ms", "ms"},
	{"sim.events_per_episode", "count"},
	{"des.freelist_hit_ratio", "ratio"},
	{"des.max_queue_depth", "count"},
	{"exec.run_ms", "ms"},
	{"exec.tasks_s", "1/s"},
	{"exec.attempts_per_task", "count"},
	{"exec.retries_per_job", "count"},
	{"market.generate_ms", "ms"},
	{"market.preempted_per_job", "count"},
	{"market.cordoned_per_job", "count"},
	{"market.remediated_per_job", "count"},
	{"telemetry.snapshot_ms", "ms"},
	{"telemetry.episodes_retained", "count"},
	{"driver.late_p99_ms", "ms"},
	{"driver.polls_per_job", "count"},
	{"host.steal_ratio", "ratio"},
	{"trace.speed_ratio", "ratio"},
	{"trace.unattributed_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamp identifies what was measured, and where.
type stamp struct {
	Workload    string    `json:"workload"`
	Seed        int64     `json:"seed"`
	Seconds     int       `json:"seconds"`
	Trace       bool      `json:"trace"`
	Started     time.Time `json:"started"`
	GitSHA      string    `json:"git_sha"`
	ScheddSHA   string    `json:"schedd_sha256"`
	GoVersion   string    `json:"go_version"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	NumCPU      int       `json:"nproc"`
	CPUModel    string    `json:"cpu_model"`
	DaemonFlags []string  `json:"daemon_flags"`
}

func newStamp(scheddBin string) stamp {
	st := stamp{
		Started:     time.Now().UTC(),
		GitSHA:      "unknown",
		ScheddSHA:   "unknown",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    "unknown",
		DaemonFlags: daemonFlags,
	}
	// The benchmark is built from the same tree as the daemon, so its
	// own VCS stamp names the commit (absent outside a git checkout).
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				st.GitSHA = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					st.GitSHA += "+modified"
				}
			}
		}
	}
	if f, err := os.Open(scheddBin); err == nil {
		h := sha256.New()
		if _, err := io.Copy(h, f); err == nil {
			st.ScheddSHA = hex.EncodeToString(h.Sum(nil))
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return st
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
