package main

import (
	"maps"
	"slices"
	"strings"
	"testing"
)

func TestParseOnly(t *testing.T) {
	cases := []struct {
		only string
		want []string // selected names; nil with bad set means an error
		bad  string   // the name the error must quote
	}{
		{only: "", want: []string{}},
		{only: "fig1", want: []string{"fig1"}},
		{only: "FIG2, tables", want: []string{"fig2", "tables"}},
		{only: "fig2-torus,faults,fig1", want: []string{"faults", "fig1", "fig2-torus"}},
		{only: "bogus", bad: `"bogus"`},
		{only: "fig1,bogus", bad: `"bogus"`},
		{only: "fig1,", bad: `""`},
		{only: "torus", bad: `"torus"`},
	}
	for _, c := range cases {
		got, err := parseOnly(c.only)
		if c.bad != "" {
			if err == nil {
				t.Errorf("-only %q: accepted %v", c.only, got)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, c.bad) || !strings.Contains(msg, strings.Join(artifacts, ", ")) {
				t.Errorf("-only %q: error %q does not name %s and list the artifacts", c.only, msg, c.bad)
			}
			continue
		}
		if err != nil {
			t.Errorf("-only %q: %v", c.only, err)
			continue
		}
		if names := slices.Sorted(maps.Keys(got)); !slices.Equal(names, c.want) {
			t.Errorf("-only %q selected %v, want %v", c.only, names, c.want)
		}
	}
}
