package service

import (
	"bytes"
	"encoding/json"
	"reflect"
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
	inline, err := json.Marshal(map[string]any{"spec": inlineSpec(spec), "seed": 7, "format": "csv"})
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

// inlineSpec encodes spec the way a client sends it inline: every
// field except the Progress callback, which JSON cannot carry.
func inlineSpec(spec scenario.Spec) map[string]any {
	v := reflect.ValueOf(spec)
	out := map[string]any{}
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.Type.Kind() != reflect.Func {
			out[f.Name] = v.Field(i).Interface()
		}
	}
	return out
}
