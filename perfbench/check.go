package main

import (
	"fmt"

	"reassign/internal/api"
)

// check verifies one finished job's status against the generator's
// own inputs. A nil error means the output is correct.
func check(w *workload, s *structure, st *api.JobStatus) error {
	if st.State != api.StateDone {
		reason := ""
		if st.Error != nil {
			reason = ": " + st.Error.Error()
		}
		return fmt.Errorf("job %s ended %s%s", st.ID, st.State, reason)
	}
	if st.Plan == nil {
		return fmt.Errorf("job %s returned no plan", st.ID)
	}
	if err := st.Plan.Plan.Validate(s.wf, s.fl); err != nil {
		return fmt.Errorf("job %s plan: %w", st.ID, err)
	}
	if !(st.Plan.MakespanSeconds > 0) {
		return fmt.Errorf("job %s plan makespan %v", st.ID, st.Plan.MakespanSeconds)
	}
	if w.replay {
		got, want := st.Plan.Plan.Entries(), s.plan.Plan.Entries()
		if len(got) != len(want) {
			return fmt.Errorf("job %s replayed a plan of %d entries, submitted %d", st.ID, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("job %s replayed %s on VM %d, submitted VM %d",
					st.ID, got[i].Activation, got[i].VM, want[i].VM)
			}
		}
	}
	if w.execute {
		if !(st.ExecMakespanSeconds > 0) {
			return fmt.Errorf("job %s exec makespan %v", st.ID, st.ExecMakespanSeconds)
		}
		ok := make(map[string]int, s.wf.Len())
		for _, rec := range st.Provenance {
			if s.wf.Get(rec.TaskID) == nil {
				return fmt.Errorf("job %s provenance names unknown activation %s", st.ID, rec.TaskID)
			}
			if rec.Success {
				ok[rec.TaskID]++
			}
		}
		for _, a := range s.wf.Activations() {
			if n := ok[a.ID]; n != 1 {
				return fmt.Errorf("job %s has %d successful provenance records for %s, want 1", st.ID, n, a.ID)
			}
		}
	}
	if w.market != "" && !(st.MarketCostUSD > 0) {
		return fmt.Errorf("job %s market bill %v", st.ID, st.MarketCostUSD)
	}
	return nil
}
