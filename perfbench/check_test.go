package main

import (
	"context"
	"errors"
	"testing"
	"time"

	"reassign/internal/api"
	"reassign/internal/core"
)

// worked runs job 0 of workload name through the in-process pipeline
// and returns the inputs and the finished job's status.
func worked(t *testing.T, name string) (*inputs, *api.JobStatus) {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	in, err := generate(w, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	l := newLedger(context.Background(), in)
	j := l.submit(0)
	l.work(j)
	if j.err != nil {
		t.Fatal(j.err)
	}
	return in, j.st
}

func TestCheckAcceptsCorrectOutput(t *testing.T) {
	for _, name := range []string{"learn-large", "replay-exec"} {
		in, st := worked(t, name)
		if err := check(in.w, in.structOf(0), st); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestCheckRejectsCorruptedPlan(t *testing.T) {
	for _, name := range []string{"learn-large", "replay-exec"} {
		in, st := worked(t, name)
		m := st.Plan.Plan.Map()
		for id := range m {
			m[id] = 9999 // no such VM
			break
		}
		bad := *st
		bad.Plan = api.NewPlanDocument(st.Plan.Workflow, st.Plan.Fleet, st.Plan.MakespanSeconds, core.NewPlan(m))
		if err := check(in.w, in.structOf(0), &bad); err == nil {
			t.Errorf("%s: plan with an absent VM passed", name)
		}
	}
	// A valid plan that is not the submitted one fails replay-exec.
	in, st := worked(t, "replay-exec")
	m := st.Plan.Plan.Map()
	vms := in.structOf(0).fl.VMs
	for id, vm := range m {
		if vm == vms[0].ID {
			m[id] = vms[1].ID
		} else {
			m[id] = vms[0].ID
		}
		break
	}
	bad := *st
	bad.Plan = api.NewPlanDocument(st.Plan.Workflow, st.Plan.Fleet, st.Plan.MakespanSeconds, core.NewPlan(m))
	if err := check(in.w, in.structOf(0), &bad); err == nil {
		t.Error("replay-exec: a changed plan passed")
	}
}

func TestCheckRejectsMissingProvenance(t *testing.T) {
	in, st := worked(t, "replay-exec")
	bad := *st
	bad.Provenance = st.Provenance[1:]
	if err := check(in.w, in.structOf(0), &bad); err == nil {
		t.Error("a missing provenance record passed")
	}
	bad.Provenance = append(append(bad.Provenance[:0:0], st.Provenance...), st.Provenance[0])
	if err := check(in.w, in.structOf(0), &bad); err == nil {
		t.Error("a duplicated provenance record passed")
	}
}

func TestCheckRejectsMissingBill(t *testing.T) {
	in, st := worked(t, "replay-exec")
	bad := *st
	bad.MarketCostUSD = 0
	if err := check(in.w, in.structOf(0), &bad); err == nil {
		t.Error("a market job without a bill passed")
	}
	bad = *st
	bad.ExecMakespanSeconds = 0
	if err := check(in.w, in.structOf(0), &bad); err == nil {
		t.Error("an execute job without an exec makespan passed")
	}
}

// TestVerdictCountsEveryFailure: a job the daemon ended failed and a
// submission that got no 202 each make the run incorrect, as a wrong
// output does.
func TestVerdictCountsEveryFailure(t *testing.T) {
	in, st := worked(t, "replay-exec")
	st.FinishedAt = st.StartedAt
	ok := &sample{Index: in.warmups()}
	(&pacer{}).record(in, ok, st)
	if res := verdict([]*sample{ok}); !res.Correct || res.Failed != 0 || res.Attempted != 1 {
		t.Fatalf("a correct job gives %+v", res)
	}

	bad := *st
	bad.State = api.StateFailed
	failed := &sample{Index: in.warmups()}
	(&pacer{}).record(in, failed, &bad)
	if failed.Kind != kindFailed {
		t.Fatalf("a failed job is of kind %q", failed.Kind)
	}
	rejected := &sample{Index: in.warmups() + 1}
	if submit(nil, rejected, nil, errors.New("413 too large")) || rejected.Kind != kindRejected {
		t.Fatalf("a rejected submission is of kind %q", rejected.Kind)
	}
	for _, s := range []*sample{failed, rejected} {
		res := verdict([]*sample{ok, s})
		if res.Correct || res.Failed != 1 || res.Attempted != 2 {
			t.Errorf("%s job: %+v, want incorrect with 1 of 2 failed", s.Kind, res)
		}
	}
}
