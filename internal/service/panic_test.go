package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestPanickingMissLeavesServerAnswering: a miss whose simulation
// panics is answered 500 naming its spec key, resolves its in-flight
// entry, is counted on /metrics, and leaves the one worker alive to
// run the same request again once the fault is gone.
func TestPanickingMissLeavesServerAnswering(t *testing.T) {
	s := New(Config{Procs: 1, QueueCap: 4})
	defer s.Close()
	s.run = func(context.Context, scenario.Spec, ...scenario.Sink) (*scenario.Result, error) {
		panic("injected fault")
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	seed := uint64(7)
	req := &RunRequest{Scenario: "fig1", Mesh: []int{4, 4, 4}, Reps: 2, Seed: &seed, Format: "csv"}
	_, key, _, err := s.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (*http.Response, string) {
		t.Helper()
		var resp *http.Response
		if path == "/v1/run" {
			body, _ := json.Marshal(req)
			resp, err = http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		} else {
			resp, err = http.Get(srv.URL + path)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.String()
	}

	resp, body := get("/v1/run")
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body, key) {
		t.Fatalf("panicking miss answered %s: %q, want 500 naming spec %s", resp.Status, body, key)
	}
	if got := resp.Header.Get("X-Wormsim-Key"); got != key {
		t.Errorf("X-Wormsim-Key = %q, want %q", got, key)
	}
	s.mu.Lock()
	left := len(s.inflight)
	s.mu.Unlock()
	if left != 0 {
		t.Errorf("%d in-flight entries left after the panic", left)
	}
	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after the panic: %s", resp.Status)
	}

	s.run = scenario.RunTo
	if resp, body := get("/v1/run"); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Wormsim-Cache") != "miss" {
		t.Fatalf("retry answered %s (%s): %q, want a fresh 200 miss", resp.Status, resp.Header.Get("X-Wormsim-Cache"), body)
	}
	_, metrics := get("/metrics")
	for _, want := range []string{"wormsimd_panics_total 1", "wormsimd_failures_total 1", "wormsimd_misses_total 1"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}
