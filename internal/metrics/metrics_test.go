package metrics

import (
	"strings"
	"testing"
)

func mkSeries() Series {
	return Series{
		Label: "test",
		Points: []Point{
			{Rate: 0.1, Latency: 20, Throughput: 0.1},
			{Rate: 0.5, Latency: 25, Throughput: 0.5},
			{Rate: 1.0, Latency: 40, Throughput: 0.98},
			{Rate: 1.5, Latency: 300, Throughput: 1.05},
			{Rate: 2.0, Latency: 2000, Throughput: 1.02},
		},
	}
}

func TestSaturationEstimate(t *testing.T) {
	s := mkSeries()
	sat := s.Saturation(3)
	// Latency triples somewhere between 1.0 and 1.5.
	if sat != 1.0 {
		t.Fatalf("saturation %v, want 1.0", sat)
	}
}

func TestSaturationEmpty(t *testing.T) {
	if (Series{}).Saturation(3) != 0 {
		t.Fatal("empty series must saturate at 0")
	}
}

func TestMaxThroughput(t *testing.T) {
	if got := mkSeries().MaxThroughput(); got != 1.05 {
		t.Fatalf("max throughput %v", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	f := Figure{
		Name:   "figX",
		Title:  "test figure",
		Series: []Series{mkSeries()},
	}
	csv := f.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 6 { // header + 5 rates
		t.Fatalf("CSV lines = %d, want 6:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "rate,test_latency,test_throughput") {
		t.Fatalf("bad header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0.1000,20.000,0.1000") {
		t.Fatalf("bad first row %q", lines[1])
	}
}

func TestCSVSparseSeries(t *testing.T) {
	f := Figure{
		Name: "figY",
		Series: []Series{
			{Label: "a", Points: []Point{{Rate: 0.1, Latency: 10, Throughput: 0.1}}},
			{Label: "b", Points: []Point{{Rate: 0.2, Latency: 12, Throughput: 0.2}}},
		},
	}
	csv := f.CSV()
	if !strings.Contains(csv, ",,") {
		t.Fatalf("sparse cells not blanked:\n%s", csv)
	}
}

func TestEnergyFigureCSV(t *testing.T) {
	f := EnergyFigure{Name: "fig15a", Bars: []EnergyBar{
		{Label: "sw-based", Intra: 0, Inter: 134.25},
		{Label: "sw-less", Intra: 33.2, Inter: 93.4},
	}}
	got := f.CSV()
	want := "system,intra_pj_per_bit,inter_pj_per_bit,total_pj_per_bit\n" +
		"sw-based,0.000,134.250,134.250\n" +
		"sw-less,33.200,93.400,126.600\n"
	if got != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", got, want)
	}
	if tot := (EnergyBar{Intra: 2.5, Inter: 40}).Total(); tot != 42.5 {
		t.Fatalf("total %v", tot)
	}
}

func TestCollectiveFigureCSV(t *testing.T) {
	f := CollectiveFigure{Name: "figcollective", Rows: []CollectiveRow{
		{System: "2d-mesh", Schedule: "ring", Steps: 3, Cycles: 95, Packets: 192,
			Efficiency: 2.0211, StepCycles: []int64{31, 32, 32}},
		{System: "switch", Schedule: "hierarchical", Steps: 0, Cycles: 0},
	}}
	got := f.CSV()
	want := "system,schedule,steps,cycles,packets,flits_per_cycle_per_chip,step_cycles\n" +
		"2d-mesh,ring,3,95,192,2.0211,31;32;32\n" +
		"switch,hierarchical,0,0,0,0.0000,\n"
	if got != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", got, want)
	}
}
