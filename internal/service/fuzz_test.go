package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/scenario"
)

// FuzzRunRequest feeds arbitrary bytes through the request path a POST
// /v1/run body takes before any simulation: strict JSON decode,
// resolve, and the canonical Key. Every input must end in an error or
// a stable key; none may panic. Nothing is simulated.
func FuzzRunRequest(f *testing.F) {
	for _, body := range []string{
		`{"scenario":"fig1","mesh":[4,4,4],"reps":2,"seed":2005,"format":"csv"}`,
		`{"scenario":"fig1","mesh":[4,4,4],"reps":2,"seed":7,"format":"json"}`,
		`{"scenario":"fig2","mesh":[6,6,6],"reps":4,"seed":99,"format":"csv"}`,
		`{"scenario":"fig1","mesh":[4,4,4],"reps":2,"seed":42,"format":"csv","procs":1,"priority":3}`,
		`{"scenario":"fig2","faults":8,"store":"lazy","format":"text"}`,
		`{"scenario":"no-such-fig"}`,
		`{}`,
		`{"scenario":"fig1","spec":{}}`,
		`{"scenario":"fig1","format":"yaml"}`,
		`{"scenario":"fig1","Shards":2}`,
	} {
		f.Add([]byte(body))
	}
	spec, err := scenario.Build("fig1", scenario.WithMesh(4, 4, 4), scenario.WithReps(2))
	if err != nil {
		f.Fatal(err)
	}
	seed := uint64(7)
	inline, err := json.Marshal(RunRequest{Spec: &spec, Seed: &seed, Format: "csv"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(inline)

	s := New(Config{Procs: 1, QueueCap: 1})
	defer s.Close()
	// The inline seed is only useful if it reaches Key: pin that it
	// decodes and resolves.
	if req, err := decodeRequest(bytes.NewReader(inline)); err != nil {
		f.Fatalf("inline seed does not decode: %v", err)
	} else if _, _, _, err := s.resolve(req); err != nil {
		f.Fatalf("inline seed does not resolve: %v", err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		spec, key, _, err := s.resolve(req)
		if err != nil {
			return
		}
		if key == "" {
			t.Fatalf("resolve returned no key and no error for %q", body)
		}
		again, err := spec.Key()
		if err != nil || again != key {
			t.Fatalf("resolved spec re-keys to %q (err %v), want %q, for %q", again, err, key, body)
		}
	})
}

// TestSpecJSONRoundTrip pins that a Go client can build an inline
// request with encoding/json: a Spec — with a Progress callback set,
// which the encoding skips — and a RunRequest carrying one both
// marshal, and decode back to a spec with the same cache key.
func TestSpecJSONRoundTrip(t *testing.T) {
	spec, err := scenario.Build("fig2-faults", scenario.WithMesh(4, 4, 4), scenario.WithReps(3))
	if err != nil {
		t.Fatal(err)
	}
	spec.Progress = func(done, total int) {}
	want, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}

	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal Spec: %v", err)
	}
	var back scenario.Spec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal Spec: %v", err)
	}
	if got, err := back.Key(); err != nil || got != want {
		t.Errorf("Spec round trip keys to %q (err %v), want %q", got, err, want)
	}

	seed := uint64(7)
	body, err := json.Marshal(RunRequest{Spec: &spec, Seed: &seed, Format: "csv"})
	if err != nil {
		t.Fatalf("marshal RunRequest: %v", err)
	}
	req, err := decodeRequest(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("strict decode of an encoded RunRequest: %v", err)
	}
	if got, err := req.Spec.Key(); err != nil || got != want {
		t.Errorf("RunRequest round trip keys to %q (err %v), want %q", got, err, want)
	}
}
