package tasklib

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestSensorFeedDeterministic(t *testing.T) {
	r := Default()
	c := &Context{Args: map[string]string{"targets": "20", "seed": "9"}}
	a := run(t, r, "Sensor_Feed", c)[0].([]Track)
	b := run(t, r, "Sensor_Feed", c)[0].([]Track)
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("track counts %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different tracks")
		}
	}
	spec, _ := r.Get("Sensor_Feed")
	if _, err := spec.Fn(&Context{Args: map[string]string{"targets": "-1"}}); err == nil {
		t.Fatal("negative targets accepted")
	}
}

func TestFuseTracksMatching(t *testing.T) {
	a := []Track{{ID: 1, X: 0, Y: 0, Strength: 0.5, Class: "unknown"}}
	b := []Track{{ID: 7, X: 1, Y: 0, Strength: 0.5, Class: "hostile"}}
	fused := FuseTracks(a, b, 5)
	if len(fused) != 1 {
		t.Fatalf("fused = %d tracks, want 1", len(fused))
	}
	// Position is the strength-weighted mean; class inherited from b.
	if math.Abs(fused[0].X-0.5) > 1e-12 || fused[0].Class != "hostile" {
		t.Fatalf("fused track wrong: %+v", fused[0])
	}
	// Outside the gate both survive.
	far := FuseTracks(a, []Track{{ID: 7, X: 100, Strength: 0.5}}, 5)
	if len(far) != 2 {
		t.Fatalf("far tracks fused: %v", far)
	}
	// Nil inputs are fine.
	if got := FuseTracks(nil, nil, 5); len(got) != 0 {
		t.Fatal("empty fusion produced tracks")
	}
}

func TestEvaluateThreatsOrdering(t *testing.T) {
	tracks := []Track{
		{ID: 1, X: 100, Y: 100, Class: "friendly", Strength: 1},            // no threat
		{ID: 2, X: 10, Y: 0, VX: -1, VY: 0, Class: "hostile", Strength: 1}, // big threat
		{ID: 3, X: 40, Y: 0, Class: "hostile", Strength: 1},                // medium
	}
	threats := EvaluateThreats(tracks)
	if len(threats) != 2 {
		t.Fatalf("threats = %v", threats)
	}
	if threats[0].TrackID != 2 || threats[1].TrackID != 3 {
		t.Fatalf("ordering wrong: %v", threats)
	}
	if threats[0].Score <= threats[1].Score {
		t.Fatal("scores not descending")
	}
	if !strings.Contains(threats[0].Reason, "hostile") || !strings.Contains(threats[0].Reason, "inbound") {
		t.Fatalf("reasons missing: %q", threats[0].Reason)
	}
}

func TestC3ITaskWrappers(t *testing.T) {
	r := Default()
	s1 := run(t, r, "Sensor_Feed", &Context{Args: map[string]string{"targets": "30", "seed": "1"}})[0]
	s2 := run(t, r, "Sensor_Feed", &Context{Args: map[string]string{"targets": "30", "seed": "2"}})[0]
	fused := run(t, r, "Data_Fusion", &Context{In: []Value{s1, s2}})[0]
	filtered := run(t, r, "Track_Filter", &Context{In: []Value{fused}})[0]
	threats := run(t, r, "Threat_Evaluation", &Context{In: []Value{filtered}})[0]
	report := run(t, r, "Report_Generator", &Context{In: []Value{threats}})[0].(string)
	if !strings.Contains(report, "C3I THREAT REPORT") {
		t.Fatalf("report = %q", report)
	}
	// Type errors propagate.
	spec, _ := r.Get("Data_Fusion")
	if _, err := spec.Fn(&Context{In: []Value{"x", "y"}}); err == nil {
		t.Fatal("junk inputs accepted")
	}
	rspec, _ := r.Get("Report_Generator")
	if _, err := rspec.Fn(&Context{In: []Value{"zz"}}); err == nil {
		t.Fatal("junk threats accepted")
	}
}

// TestC3IOutputDigest pins every output of the C3I pipeline bit for bit:
// the digests were taken with the kernels building reasons by
// strings.Join, reports by fmt.Fprintf and sorting by sort.Slice. The
// wire form tells a nil slice from an empty one, so targets=0 (nil
// tracks, nil threats) and seed 1 at targets=1 (two tracks, neither
// scores) pin that an empty result stays nil.
func TestC3IOutputDigest(t *testing.T) {
	for _, tc := range []struct {
		targets int
		seed    int64
		want    string
	}{
		{0, 1, "e82b212a46ca9e20ff0680ad26b7090cf58f41b81aea0f9067d06c21843f3fa4"},
		{1, 1, "4939a6c40b8f5a5ad632fa33f14917015cfc5a5198658dd94a88508715cdc4e9"},
		{1, 2, "3aafcd510273f319fc5b5f6f889ccba7af642f7b6c66c47b535068118c417687"},
		{1, 3, "61d6b8d465543db9d7d584dd906f66d20388b4e84a86b8554226ced010d00b72"},
		{7, 1, "e00aec8b379759445ef9501be74ad8425cc464fb2710598de3d353e72150f17f"},
		{7, 2, "f4e49e1b2d4cf64d78bf435229d07915f8c11cacf7fe0ae1c8500f00c32111b9"},
		{7, 3, "ecec74a0d3e85ae7460d14ed57dcc43692b00082b90b71ceea63f2f259c1402a"},
		{64, 1, "9fa93b9e852fde2803c959f4802bbe2d44df05b29ea6e73967498e0d05457e6b"},
		{64, 2, "6ef0bc613d6debfabe75a0392e9d500deb74bad4a4ce5b0e76666e21765757a6"},
		{64, 3, "27b78b8817063dfcae9665018059071afd2fe14d138a6406379086e57882738d"},
		{500, 1, "d48396afc5d9c18cf9c477ddfa568b638257f4de150468e726d8ceb7edf72c10"},
		{500, 2, "6211bfa91e0bb268d79a7ca75d2306b2ea1cb6fca203ab710f4e898eb8f51150"},
		{500, 3, "e53e96584f742bd71342e35330f27c689d88888d9c636e23457d6293280fc3d3"},
	} {
		g, err := BuildC3IPipeline(tc.targets, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := outputDigest(t, g); got != tc.want {
			t.Errorf("C3I targets=%d seed %d: digest %s, want %s", tc.targets, tc.seed, got, tc.want)
		}
	}
	g, err := BuildC3IPipeline(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunLocal(g, Default())
	if err != nil {
		t.Fatal(err)
	}
	if th := results[4][0].([]Threat); th != nil {
		t.Fatalf("targets=1 seed 1: threats %#v, want nil (no track scores)", th)
	}
}

// TestC3IKernelAllocBudget pins what the C3I tasks allocate on a
// 7-target pipeline, each task alone and RunLocal of the whole graph.
// A fresh generator per Sensor_Feed, a reasons slice and a Join per
// threat, fmt per report line and sort.Slice's swappers cost Sensor_Feed
// 4, Data_Fusion 11, Threat_Evaluation 22, Report_Generator 24 and
// RunLocal 87; building each result in place measures 3, 4, 3, 3 and 38.
// Sensor_Feed's budget has room for the race detector, which drops
// pooled generators.
func TestC3IKernelAllocBudget(t *testing.T) {
	r := Default()
	g, err := BuildC3IPipeline(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunLocal(g, r)
	if err != nil {
		t.Fatal(err)
	}
	task := func(id int) func() {
		tk := g.Tasks[id]
		spec, err := r.Get(tk.Name)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]Value, tk.InPorts)
		for _, e := range g.InEdges(tk.ID) {
			in[e.ToPort] = results[e.From][e.FromPort]
		}
		c := &Context{In: in, Args: tk.Props.Args, Nodes: 1}
		return func() {
			if _, err := spec.Fn(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name   string
		budget float64
		fn     func()
	}{
		{"Sensor_Feed", 4, task(0)},
		{"Data_Fusion", 4, task(2)},
		{"Track_Filter", 3, task(3)},
		{"Threat_Evaluation", 3, task(4)},
		{"Report_Generator", 3, task(5)},
		{"RunLocal C3I-7", 44, func() {
			if _, err := RunLocal(g, r); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		got := testing.AllocsPerRun(50, tc.fn)
		t.Logf("%s: %.0f allocs (budget %.0f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s allocates %.0f per call, over its budget of %.0f", tc.name, got, tc.budget)
		}
	}
}

func BenchmarkRunLocalC3I(b *testing.B) {
	g, err := BuildC3IPipeline(7, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := Default()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := RunLocal(g, r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestThreatReportMatchesFmt: the report pads its fields as the
// fmt.Fprintf lines it replaced did, for the values a decoded threat
// list can carry (negative and wide IDs, NaN, infinities, -0, scores
// wider than the field), and cuts the list after ten.
func TestThreatReportMatchesFmt(t *testing.T) {
	viaFmt := func(threats []Threat) string {
		var b strings.Builder
		fmt.Fprintf(&b, "C3I THREAT REPORT: %d threats\n", len(threats))
		for i, th := range threats {
			if i >= 10 {
				fmt.Fprintf(&b, "  ... %d more\n", len(threats)-10)
				break
			}
			fmt.Fprintf(&b, "  track %3d score %6.2f (%s)\n", th.TrackID, th.Score, th.Reason)
		}
		return b.String()
	}
	odd := []Threat{
		{TrackID: -5, Score: -0.0001, Reason: "close"},
		{TrackID: 1234567, Score: 1e21, Reason: ""},
		{TrackID: 7, Score: math.NaN(), Reason: "hostile"},
		{TrackID: 8, Score: math.Inf(1)},
		{TrackID: 9, Score: math.Inf(-1)},
		{TrackID: 10, Score: math.Copysign(0, -1)},
		{TrackID: 11, Score: 999.999},
		{TrackID: 12, Score: 1e300, Reason: strings.Repeat("r", 200)},
	}
	many := make([]Threat, 25)
	for i := range many {
		many[i] = Threat{TrackID: i * 37, Score: float64(i) * 3.14159, Reason: threatReasons[i%8]}
	}
	for _, threats := range [][]Threat{nil, {}, odd, many, many[:10], many[:11]} {
		if got, want := threatReport(threats), viaFmt(threats); got != want {
			t.Errorf("report of %d threats:\n%s\nwant:\n%s", len(threats), got, want)
		}
	}
}
