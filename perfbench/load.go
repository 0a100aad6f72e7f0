package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"reassign/internal/api"
)

// Failure kinds of a measured job; "" is a job that finished done and
// passed the output checks.
const (
	kindRejected = "rejected" // the submission did not get its 202
	kindFailed   = "failed"   // the daemon ended the job failed or canceled
	kindTimeout  = "timeout"  // not finished within jobTimeout of being due
	kindCheck    = "check"    // finished done with a wrong output
	kindPoll     = "poll"     // its status could not be read
)

// jobTimeout bounds how long a job may take from due to finished.
const jobTimeout = 20 * time.Second

// pollGap is the pause between two polls of an unfinished job.
const pollGap = time.Millisecond

// sample is one measured job. Due and Sent are client clock readings;
// Submitted, Started and Finished the daemon's stamps, on the same
// host clock.
type sample struct {
	Index     int
	ID        string
	Due       time.Time
	Sent      time.Time
	Submit    time.Duration
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	Polls     int

	Episodes     int
	LearningS    float64
	CacheHit     bool
	PlanMakespan float64
	ExecMakespan float64
	Cost         float64
	StatusBytes  int
	StatusRTT    time.Duration

	Kind string
	Err  string
}

func (s *sample) fail(kind string, err error) {
	s.Kind, s.Err = kind, err.Error()
}

// latency is the job's time from due to the daemon's finish stamp.
func (s *sample) latency() time.Duration { return s.Finished.Sub(s.Due) }

// pacer spaces one poller's status requests: the first poll of a job
// waits for most of the typical submit-to-finish time, so unfinished
// polls stay few without delaying the poller much. Timing comes from
// the daemon's stamps, so pacing never changes a measured latency.
type pacer struct {
	est time.Duration
}

func (p *pacer) observe(d time.Duration) {
	if p.est == 0 {
		p.est = d
		return
	}
	p.est = (7*p.est + d) / 8
}

// await polls job s until it reaches a terminal state, then fills in
// its stamps and results and checks its output.
func (p *pacer) await(c *client, in *inputs, s *sample) {
	sleepUntil(s.Sent.Add(s.Submit + p.est*3/4))
	deadline := s.Due.Add(jobTimeout)
	for {
		st, n, rtt, err := c.status(s.ID)
		s.Polls++
		if err != nil {
			s.fail(kindPoll, err)
			return
		}
		switch st.State {
		case api.StateDone, api.StateFailed, api.StateCanceled:
			s.StatusBytes, s.StatusRTT = n, rtt
			p.record(in, s, st)
			return
		}
		if time.Now().After(deadline) {
			s.fail(kindTimeout, fmt.Errorf("job %s still %s after %v", s.ID, st.State, jobTimeout))
			return
		}
		time.Sleep(pollGap)
	}
}

func (p *pacer) record(in *inputs, s *sample, st *api.JobStatus) {
	parse := func(v string) time.Time {
		t, _ := time.Parse(time.RFC3339Nano, v)
		return t
	}
	s.Submitted, s.Started, s.Finished = parse(st.SubmittedAt), parse(st.StartedAt), parse(st.FinishedAt)
	s.Episodes, s.LearningS, s.CacheHit = st.Episodes, st.LearningSeconds, st.CacheHit
	s.ExecMakespan, s.Cost = st.ExecMakespanSeconds, st.MarketCostUSD
	if st.Plan != nil {
		s.PlanMakespan = st.Plan.MakespanSeconds
	}
	if st.State != api.StateDone {
		s.fail(kindFailed, check(in.w, in.structOf(s.Index), st))
		return
	}
	if err := check(in.w, in.structOf(s.Index), st); err != nil {
		s.fail(kindCheck, err)
		return
	}
	if s.Finished.IsZero() || s.Started.IsZero() || s.Submitted.IsZero() {
		s.fail(kindCheck, fmt.Errorf("job %s lacks lifecycle stamps", s.ID))
		return
	}
	p.observe(s.Finished.Sub(s.Sent))
}

// submit sends job s, which must have its Index and Due set, once it
// is due.
func submit(c *client, s *sample, body []byte, err error) bool {
	if err != nil {
		s.fail(kindRejected, err)
		return false
	}
	sleepUntil(s.Due)
	s.Sent = time.Now()
	s.ID, s.Submit, err = c.submitJob(body)
	if err != nil {
		s.fail(kindRejected, err)
		return false
	}
	return true
}

// every calls fn once a period until the returned stop is called. Stop
// waits for the last call and returns the duration of each call that
// succeeded, in ms.
func every(period time.Duration, fn func() (time.Duration, error)) (stop func() []float64) {
	done := make(chan struct{})
	out := make(chan []float64)
	go func() {
		var durs []float64
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-done:
				out <- durs
				return
			case <-tick.C:
				if d, err := fn(); err == nil {
					durs = append(durs, ms(d))
				}
			}
		}
	}()
	return func() []float64 {
		close(done)
		return <-out
	}
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// runOpen drives the open loop: one goroutine submits every job at its
// due time (or as soon as the submit connection frees, if late), and
// one polls them to completion in submission order. It runs the part
// [from, to) of the schedule from start, and numbers the schedule's
// jobs from first.
func runOpen(c *client, in *inputs, first int, start time.Time, from, to time.Duration) []*sample {
	lo := sort.Search(len(in.due), func(i int) bool { return in.due[i] >= from })
	hi := sort.Search(len(in.due), func(i int) bool { return in.due[i] >= to })
	type body struct {
		b   []byte
		err error
	}
	// Bodies are made ahead, so a late submitter does not also pay for
	// marshalling; two in hand cover a burst without holding many
	// large bodies.
	bodies := make(chan body, 2)
	go func() {
		defer close(bodies)
		for i := lo; i < hi; i++ {
			b, err := in.body(first + i)
			bodies <- body{b, err}
		}
	}()
	samples := make([]*sample, hi-lo)
	sent := make(chan *sample, hi-lo) // never blocks the submitter
	go func() {
		defer close(sent)
		for i := lo; i < hi; i++ {
			s := &sample{Index: first + i, Due: start.Add(in.due[i] - from)}
			samples[i-lo] = s
			b := <-bodies
			if submit(c, s, b.b, b.err) {
				sent <- s
			}
		}
	}()
	p := &pacer{}
	for s := range sent {
		p.await(c, in, s)
	}
	return samples
}

// runClosed drives the closed loop: each client submits a job, waits
// for it, and submits the next, until the window has passed. A job is
// due when its client is ready to send it.
func runClosed(c *client, in *inputs, first int, start time.Time, window time.Duration) []*sample {
	var (
		mu      sync.Mutex
		next    = first
		samples []*sample
		wg      sync.WaitGroup
	)
	end := start.Add(window)
	for k := 0; k < in.w.clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &pacer{}
			for time.Now().Before(end) {
				mu.Lock()
				s := &sample{Index: next, Due: time.Now()}
				next++
				samples = append(samples, s)
				mu.Unlock()
				if body, err := in.body(s.Index); submit(c, s, body, err) {
					p.await(c, in, s)
				}
			}
		}()
	}
	wg.Wait()
	return samples
}

// runJobs submits jobs [first, first+n) one after another and waits
// for each: the set-up path.
func runJobs(c *client, in *inputs, first, n int) error {
	p := &pacer{}
	for i := first; i < first+n; i++ {
		s := &sample{Index: i, Due: time.Now()}
		if body, err := in.body(i); submit(c, s, body, err) {
			p.await(c, in, s)
		}
		if s.Kind != "" {
			return fmt.Errorf("set-up job %d: %s", i, s.Err)
		}
	}
	return nil
}
