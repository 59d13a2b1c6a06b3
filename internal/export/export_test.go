package export

import (
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/scenario"
)

func sampleFigure() *scenario.Figure {
	return &scenario.Figure{
		ID:     "Fig.T",
		XLabel: "nodes",
		YLabel: "latency",
		Series: []scenario.Series{
			{Label: "RD", Points: []scenario.Point{{X: 64, Y: 10.5}, {X: 512, Y: 16.25}}},
			{Label: "DB", Points: []scenario.Point{{X: 64, Y: 7.25}}},
		},
	}
}

func TestFigureCSV(t *testing.T) {
	var b strings.Builder
	if err := FigureCSV(&b, sampleFigure()); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 {
		t.Fatalf("records = %d, want header + 3", len(records))
	}
	if records[0][2] != "nodes" || records[0][3] != "latency" {
		t.Errorf("header = %v", records[0])
	}
	if records[1][0] != "Fig.T" || records[1][1] != "RD" || records[1][2] != "64" || records[1][3] != "10.5" {
		t.Errorf("row 1 = %v", records[1])
	}
	if records[3][1] != "DB" {
		t.Errorf("row 3 = %v", records[3])
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &scenario.CVTable{
		ID:       "Table T",
		Proposed: "DB",
		Columns: []scenario.CVColumn{
			{
				Mesh: "mesh 4x4x4", Nodes: 64, ProposedCV: 0.15,
				Rows: []metrics.ImprovementRow{
					{Baseline: "RD", BaselineCV: 0.25, ProposedCV: 0.15, Improvement: 66.7},
					{Baseline: "EDN", BaselineCV: 0.21, ProposedCV: 0.15, Improvement: 40},
				},
			},
			{
				Mesh: "mesh 8x8x8", Nodes: 512, ProposedCV: 0.2,
				Rows: []metrics.ImprovementRow{
					{Baseline: "RD", BaselineCV: 0.42, ProposedCV: 0.2, Improvement: 110},
					{Baseline: "EDN", BaselineCV: 0.39, ProposedCV: 0.2, Improvement: 95},
				},
			},
		},
	}
	var b strings.Builder
	if err := TableCSV(&b, tbl); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 { // header, RD, EDN, DB
		t.Fatalf("records = %d", len(records))
	}
	if records[1][0] != "RD" || records[1][1] != "0.25" || records[1][2] != "66.7" {
		t.Errorf("RD row = %v", records[1])
	}
	if records[3][0] != "DB" || records[3][1] != "0.15" {
		t.Errorf("proposed row = %v", records[3])
	}
	if len(records[0]) != 5 {
		t.Errorf("header width = %d, want 5", len(records[0]))
	}
}
