package protocol

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"vdce/internal/repository"
)

// roundTrip gob-encodes and decodes v into out (a pointer).
func roundTrip(t *testing.T, v, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadBatchGob(t *testing.T) {
	in := WorkloadBatch{
		Site: "s", Group: "g",
		Samples: []HostSample{{
			Host:   "h",
			Sample: repository.WorkloadSample{CPULoad: 0.5, AvailMemBytes: 99, Time: time.Unix(7, 0).UTC()},
		}},
	}
	var out WorkloadBatch
	roundTrip(t, in, &out)
	if len(out.Samples) != 1 || out.Samples[0].Sample.CPULoad != 0.5 {
		t.Fatalf("round trip lost data: %+v", out)
	}
	if !out.Samples[0].Sample.Time.Equal(time.Unix(7, 0)) {
		t.Fatal("timestamp lost")
	}
}

func TestNoticesGob(t *testing.T) {
	var f FailureNotice
	roundTrip(t, FailureNotice{Host: "h", Group: "g", Detected: time.Unix(1, 0).UTC()}, &f)
	if f.Host != "h" {
		t.Fatal("failure notice lost")
	}
	var r RecoveryNotice
	roundTrip(t, RecoveryNotice{Host: "h2"}, &r)
	if r.Host != "h2" {
		t.Fatal("recovery notice lost")
	}
	var e ExecutionRecord
	roundTrip(t, ExecutionRecord{Task: "t", Host: "h", Elapsed: time.Second}, &e)
	if e.Elapsed != time.Second {
		t.Fatal("execution record lost")
	}
}
