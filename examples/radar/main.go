// Radar runs a signal-processing application from the VDCE signal
// library: two noisy receiver channels are synthesized, low-pass
// filtered, transformed to power spectra in parallel, and peak-detected
// — the spectrum-surveillance workload sitting beside the paper's C3I
// motivation. The detected carrier frequencies are cross-checked against
// the synthesis ground truth.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"vdce"
	"vdce/internal/afg"
	"vdce/internal/dsp"
	"vdce/internal/testbed"
)

func main() {
	n := flag.Int("n", 4096, "samples per channel (power of two)")
	flag.Parse()

	g := afg.NewGraph("Radar Spectrum Surveillance")
	// Two receiver channels with known carriers at bins 96 and 200.
	rx1 := g.AddTask("Signal_Generate", "signal", 0, 1)
	rx2 := g.AddTask("Signal_Generate", "signal", 0, 1)
	f1 := g.AddTask("Lowpass_Filter", "signal", 1, 1)
	f2 := g.AddTask("Lowpass_Filter", "signal", 1, 1)
	ps1 := g.AddTask("Power_Spectrum", "signal", 1, 1)
	ps2 := g.AddTask("Power_Spectrum", "signal", 1, 1)
	pk1 := g.AddTask("Peak_Detect", "signal", 1, 1)
	pk2 := g.AddTask("Peak_Detect", "signal", 1, 1)

	ns := fmt.Sprint(*n)
	must(g.SetProps(rx1, afg.Properties{Args: map[string]string{
		"n": ns, "f1": "96", "a1": "2", "noise": "0.3", "seed": "11"}}))
	must(g.SetProps(rx2, afg.Properties{Args: map[string]string{
		"n": ns, "f1": "200", "a1": "1.5", "f2": "1800", "a2": "1", "noise": "0.3", "seed": "12"}}))
	for _, f := range []afg.TaskID{f1, f2} {
		must(g.SetProps(f, afg.Properties{Args: map[string]string{"taps": "63", "cutoff": "0.15"}}))
	}
	for _, p := range []afg.TaskID{ps1, ps2} {
		must(g.SetProps(p, afg.Properties{Mode: afg.Parallel, Nodes: 2}))
	}
	for _, p := range []afg.TaskID{pk1, pk2} {
		must(g.SetProps(p, afg.Properties{Args: map[string]string{"threshold": "5"}}))
	}
	sz := int64(*n) * 8
	must(g.Connect(rx1, 0, f1, 0, sz))
	must(g.Connect(rx2, 0, f2, 0, sz))
	must(g.Connect(f1, 0, ps1, 0, sz))
	must(g.Connect(f2, 0, ps2, 0, sz))
	must(g.Connect(ps1, 0, pk1, 0, sz/2))
	must(g.Connect(ps2, 0, pk2, 0, sz/2))

	env, err := vdce.New(vdce.Config{
		Testbed: testbed.Config{Sites: 2, HostsPerGroup: 4, Seed: 13},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()

	ctx := context.Background()
	job, err := env.Submit(ctx, g, vdce.WithHomeSite(0), vdce.WithMaxHosts(1))
	if err != nil {
		log.Fatal(err)
	}
	if err := job.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	table, res := job.Table(), job.Result()
	fmt.Println(g.Summary())
	fmt.Println(table)

	report := func(name string, id afg.TaskID, want int) {
		peaks := res.Outputs[id][0].([]dsp.Peak)
		fmt.Printf("%s: %d peaks", name, len(peaks))
		if len(peaks) > 0 {
			fmt.Printf(", dominant at bin %d (power %.1f)", peaks[0].Bin, peaks[0].Power)
			if diff := peaks[0].Bin - want; diff >= -2 && diff <= 2 {
				fmt.Printf("  [matches carrier %d: OK]", want)
			} else {
				fmt.Printf("  [expected carrier %d: MISMATCH]", want)
			}
		}
		fmt.Println()
	}
	report("channel 1", pk1, 96)
	report("channel 2", pk2, 200)
	fmt.Printf("makespan: %v\n", res.Makespan)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
