package monitor

import (
	"context"
	"sync"
	"testing"
	"time"

	"vdce/internal/repository"
	"vdce/internal/testbed"
)

func testHost(t *testing.T) *testbed.Host {
	t.Helper()
	tb, err := testbed.Build(testbed.Config{Sites: 1, HostsPerGroup: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return tb.Sites[0].Hosts[0]
}

func TestMeasureOnce(t *testing.T) {
	h := testHost(t)
	d := NewDaemon(h, 0) // default period
	if d.Period != time.Second {
		t.Fatalf("default period = %v", d.Period)
	}
	var got []repository.WorkloadSample
	sink := func(host string, s repository.WorkloadSample) {
		if host != h.Name {
			t.Errorf("sample for %q", host)
		}
		got = append(got, s)
	}
	now := time.Unix(50, 0)
	if !d.MeasureOnce(now, sink) {
		t.Fatal("reachable host not sampled")
	}
	if len(got) != 1 || !got[0].Time.Equal(now) {
		t.Fatalf("samples = %v", got)
	}
	// A failed host produces nothing — its daemon died with it.
	h.Fail()
	if d.MeasureOnce(now, sink) {
		t.Fatal("failed host reported a delivery")
	}
	if len(got) != 1 {
		t.Fatal("failed host still sampled")
	}
	// A partitioned host keeps computing but its reports never arrive:
	// the silence the failure detector feeds on.
	h.Recover()
	h.Partition()
	if d.MeasureOnce(now, sink) || len(got) != 1 {
		t.Fatal("partitioned host's report got through")
	}
	h.Heal()
	if !d.MeasureOnce(now.Add(time.Second), sink) || len(got) != 2 {
		t.Fatal("healed host not sampled")
	}
}

func TestRunDelivers(t *testing.T) {
	h := testHost(t)
	d := NewDaemon(h, 2*time.Millisecond)
	var mu sync.Mutex
	count := 0
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		d.Run(ctx, func(string, repository.WorkloadSample) {
			mu.Lock()
			count++
			mu.Unlock()
		})
		close(done)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		c := count
		mu.Unlock()
		if c >= 3 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	<-done
	mu.Lock()
	defer mu.Unlock()
	if count < 3 {
		t.Fatalf("only %d samples delivered", count)
	}
}
