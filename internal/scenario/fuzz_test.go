package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSpecCanonical decodes arbitrary bytes as a Spec and, for every
// spec that keys, checks that the key survives the round trips a spec
// takes on its way to a cache lookup: a JSON encode and decode of the
// spec itself (how a client ships an inline spec), resolving its
// defaults (Canonical resolves them again and must land on the same
// form), and a decode and re-encode of the canonical bytes. Nothing is
// simulated.
func FuzzSpecCanonical(f *testing.F) {
	for _, name := range Names() {
		spec, err := Build(name)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(raw)
	}
	for _, raw := range []string{
		`{}`,
		`{"Name":"fig1","Store":"auto","Pattern":"uniform"}`,
		`{"Name":"fig2","Workload":1,"Faults":{}}`,
		`{"Name":"fig2","Topo":"torus","Dims":[4,4,4],"VCs":2,"Seed":18446744073709551615}`,
		`{"Name":"x","Xs":[1e-300,0.1,3],"Ts":0.15,"Length":7}`,
	} {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var spec Spec
		if json.Unmarshal(raw, &spec) != nil {
			return
		}
		key, err := spec.Key()
		if err != nil {
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("a spec that keys does not encode: %v", err)
		}
		var back Spec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("encoded spec %s does not decode: %v", enc, err)
		}
		if got, err := back.Key(); err != nil || got != key {
			t.Fatalf("JSON round trip keys to %q (err %v), want %q\nspec: %s", got, err, key, enc)
		}
		if got, err := spec.applyDefaults().Key(); err != nil || got != key {
			t.Fatalf("resolved spec keys to %q (err %v), want %q\nspec: %s", got, err, key, enc)
		}
		canon, err := spec.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		var c canonicalSpec
		if err := json.Unmarshal(canon, &c); err != nil {
			t.Fatalf("canonical form %s does not decode: %v", canon, err)
		}
		if again, err := json.Marshal(c); err != nil || !bytes.Equal(again, canon) {
			t.Fatalf("canonical form re-encodes as %s (err %v), want %s", again, err, canon)
		}
	})
}
