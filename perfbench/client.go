package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"time"

	"reassign/internal/api"
)

// client talks to one daemon over at most two HTTP connections: one
// carries submissions, the other status polls and /metrics scrapes.
type client struct {
	base   string
	submit *http.Client
	poll   *http.Client
}

func newClient(addr string) *client {
	conn := func() *http.Client {
		return &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return &client{base: "http://" + addr, submit: conn(), poll: conn()}
}

func (c *client) close() {
	c.submit.CloseIdleConnections()
	c.poll.CloseIdleConnections()
}

// do sends req and reads the whole body. The returned duration runs
// from the moment the request holds its connection to the end of the
// body, so waiting for the shared connection is not counted.
func do(hc *http.Client, req *http.Request) (int, []byte, time.Duration, error) {
	var start time.Time
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { start = time.Now() },
	}))
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, time.Since(start), err
}

// submitJob POSTs one job and returns its ID and the time until the
// 202 was read.
func (c *client) submitJob(body []byte) (string, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	code, resp, d, err := do(c.submit, req)
	if err != nil {
		return "", 0, fmt.Errorf("submit: %w", err)
	}
	if code != http.StatusAccepted {
		return "", d, fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(resp))
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &st); err != nil || st.ID == "" {
		return "", d, fmt.Errorf("submit: bad 202 body %q", resp)
	}
	return st.ID, d, nil
}

// status GETs one job. It returns the decoded status, the body size
// and the round trip.
func (c *client) status(id string) (*api.JobStatus, int, time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	code, body, d, err := do(c.poll, req)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("status %s: %w", id, err)
	}
	if code != http.StatusOK {
		return nil, len(body), d, fmt.Errorf("status %s: HTTP %d: %s", id, code, bytes.TrimSpace(body))
	}
	var st api.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, len(body), d, fmt.Errorf("status %s: %w", id, err)
	}
	return &st, len(body), d, nil
}

// scrape GETs /metrics and parses its unlabelled samples.
func (c *client) scrape() (map[string]float64, time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, 0, err
	}
	code, body, d, err := do(c.poll, req)
	if err != nil {
		return nil, 0, fmt.Errorf("scrape: %w", err)
	}
	if code != http.StatusOK {
		return nil, d, fmt.Errorf("scrape: HTTP %d", code)
	}
	return parseProm(body), d, nil
}

// parseProm reads "name value" sample lines, skipping comments and
// labelled series.
func parseProm(body []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// waitHealthy polls /healthz until the daemon answers or ctx ends.
func (c *client) waitHealthy(ctx context.Context) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
		if err != nil {
			return err
		}
		code, _, _, err := do(c.poll, req)
		if err == nil && code == http.StatusOK {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("schedd not healthy: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}
