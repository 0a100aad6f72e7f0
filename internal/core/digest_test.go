package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"reassign/internal/cloud"
	"reassign/internal/rl"
	"reassign/internal/sim"
	"reassign/internal/trace"
)

// TestLearningDigests pins learned values across code changes: per
// case it hashes the learned Q table(s), every episode's makespan and
// reward, and the extracted plan with its makespan, and compares the
// digest against a recorded one. A refactor of the episode loop, the
// bootstrap or the table backings that is meant to be exact must keep
// every digest; one that changes a seeded stream must re-record them
// and say why.
//
// Floating-point results are only reproducible where Go does not fuse
// multiply-adds, so the digests are checked on amd64 alone.
func TestLearningDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64; other architectures may fuse multiply-adds")
	}
	fluct := cloud.DefaultFluctuation()
	sarsa := DefaultParams()
	sarsa.Rule = SARSA
	doubleQ := DefaultParams()
	doubleQ.Rule = DoubleQ
	available := DefaultParams()
	available.Scope = AvailableOnly
	constGamma := DefaultParams()
	constGamma.Gamma = 0.9
	constGamma.GammaPowerT = false
	doubleQAvail := doubleQ
	doubleQAvail.Scope = AvailableOnly

	type digestCase struct {
		name   string
		params Params
		sim    sim.Config
		large  bool                     // Montage-1000 × FleetScaled(256) instead of Montage-50 × 16 vCPUs
		small  bool                     // two t2.micro VMs, so autoscale has a backlog to react to
		table  func(n, v int) *rl.Table // nil: the Learner's default backing
		warm   bool                     // continue a first run's table in a second learner
		eps    int
		want   string
	}
	cases := []digestCase{
		{name: "qlearning", params: DefaultParams(), eps: 30,
			want: "0e329d68e8d02148c943c663ff516dfe790b31de60335942803a436b967af73a"},
		{name: "sarsa", params: sarsa, eps: 30,
			want: "8d6db7ef250a9de079d7bb3576c5a5a655d6f50072e2625b95e74d4f0f99a36d"},
		{name: "doubleq", params: doubleQ, eps: 30,
			want: "ad8adad3b23965f3df4719d2b20b22d2ec6beee5af107c9ad5a1d21b6ea3740d"},
		{name: "available-only", params: available, eps: 30,
			want: "fc91efe04ace9ad2bb726e19e8152ebf809a97077f350a0440597c318cf4ef06"},
		{name: "doubleq-available-only", params: doubleQAvail, eps: 20,
			want: "f17ef386b0323c6ed5ca25588bd69a9b78898ab39a5e4ce8b71f7c000f4aac7e"},
		{name: "constant-gamma", params: constGamma, eps: 30,
			want: "54faf8c6600bef64447db9553d0fa5988fc249f3a71aa9a5d9b4919faac5f947"},
		{name: "fluctuation", params: DefaultParams(), sim: sim.Config{Fluct: &fluct}, eps: 30,
			want: "9d769f0ca3504670118d38fe731b8ab93899811716cd1ad2a6959db4c8b9a77d"},
		{name: "sarsa-fluctuation", params: sarsa, sim: sim.Config{Fluct: &fluct}, eps: 20,
			want: "f52f37ce476a0f56801f0988e15994e5efd27340598749a4220ec66aab32d4b2"},
		{name: "doubleq-fluctuation", params: doubleQ, sim: sim.Config{Fluct: &fluct}, eps: 20,
			want: "849beab924ccf7ea5d4e74eb1335786c9a0bf89f03c3fbf1816a8e8f1d9cda5c"},
		{name: "failures-retries", params: DefaultParams(),
			sim: sim.Config{Failure: cloud.FailureModel{Rate: 0.1}, MaxRetries: 10}, eps: 30,
			want: "26b0c42c426475d4877a0356329dbd72b22fdb769eccf07b60b5465f87e6d0f1"},
		{name: "data-transfer", params: DefaultParams(), sim: sim.Config{DataTransfer: true}, eps: 30,
			want: "e16453cf4bb2821d9a45d839bc48af46818bbbd19c8aa2bcf4acb91b58c99999"},
		{name: "autoscale", params: DefaultParams(),
			sim: sim.Config{Autoscale: &sim.Autoscale{Type: cloud.T2Micro, MaxVMs: 6, BootDelay: 1}}, small: true, eps: 30,
			want: "ebe3913f83b4f601d8a548c4753b71a95cab8c348fed09742b217362c78bd07f"},
		{name: "sparse-table", params: DefaultParams(), eps: 20,
			table: func(int, int) *rl.Table { return rl.NewTable(rand.New(rand.NewSource(23)), 1.0) },
			want:  "2617ff2eb0faddc75600b14f04a6da06b9e6b20e0f7160c32bed6e115882f80b"},
		{name: "warm-start", params: DefaultParams(), warm: true, eps: 20,
			want: "58c72696d455aa3f1b08c856944ec5c7e579a3adcdc49bf5768561fb13f3253c"},
		{name: "montage1000-256", params: DefaultParams(), sim: sim.Config{Fluct: &fluct}, large: true, eps: 5,
			want: "22eb435ca3cee9dc373619f7293986a631923ed83b7c5d5df284c15653783803"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := montage50(t, 6)
			fl := fleet(t, 16)
			if tc.small {
				fl = cloud.MustFleet("micro-2", []cloud.VMType{cloud.T2Micro}, []int{2})
			}
			if tc.large {
				w = trace.MontageN(rand.New(rand.NewSource(1)), 1000)
				var err error
				if fl, err = cloud.FleetScaled(256); err != nil {
					t.Fatal(err)
				}
			}
			cfg := Config{Workflow: w, Fleet: fl, Params: tc.params, Episodes: tc.eps, Sim: tc.sim}
			var opts []Option
			if tc.table != nil {
				opts = append(opts, WithTable(tc.table(w.Len(), len(fl.VMs))))
			}
			h := sha256.New()
			if tc.warm {
				first := learnForDigest(t, cfg, append(opts, WithSeed(3))...)
				digestResult(h, first)
				opts = append(opts, WithTable(first.res.Table))
			}
			run := learnForDigest(t, cfg, append(opts, WithSeed(17))...)
			digestResult(h, run)
			if tc.sim.Autoscale != nil && !learnedBeyond(run.res.Table, len(fl.VMs)) {
				t.Fatal("autoscale case never learned on an acquired VM")
			}
			got := hex.EncodeToString(h.Sum(nil))
			if got != tc.want {
				t.Errorf("digest = %s, want %s", got, tc.want)
			}
		})
	}
}

// digestRun is one learner's outcome plus its DoubleQ second table.
type digestRun struct {
	res    *Result
	tableB *rl.Table
}

func learnForDigest(t *testing.T, cfg Config, opts ...Option) digestRun {
	t.Helper()
	l, err := NewLearner(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Learn()
	if err != nil {
		t.Fatal(err)
	}
	return digestRun{res: res, tableB: l.tableB}
}

// learnedBeyond reports whether tab holds a value for a VM ID at or
// past numVMs, i.e. one acquired after the initial fleet.
func learnedBeyond(tab *rl.Table, numVMs int) bool {
	for _, e := range tab.Snapshot() {
		if e.Key.VM >= numVMs {
			return true
		}
	}
	return false
}

// digestResult feeds every learned value, episode statistic and plan
// entry of r into h, floats by their exact bits.
func digestResult(h hash.Hash, r digestRun) {
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	table := func(tab *rl.Table) {
		if tab == nil {
			u(0)
			return
		}
		es := tab.Snapshot()
		u(uint64(len(es)))
		for _, e := range es {
			u(uint64(e.Key.Task))
			u(uint64(e.Key.VM))
			f(e.Value)
		}
	}
	table(r.res.Table)
	table(r.tableB)
	u(uint64(len(r.res.Episodes)))
	for _, ep := range r.res.Episodes {
		f(ep.Makespan)
		f(ep.Reward)
		u(uint64(ep.State))
	}
	entries := r.res.Plan.Entries()
	u(uint64(len(entries)))
	for _, e := range entries {
		h.Write([]byte(e.Activation))
		u(uint64(e.VM))
	}
	f(r.res.PlanMakespan)
}
