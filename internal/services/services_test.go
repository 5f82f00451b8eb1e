package services

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestConsoleGate(t *testing.T) {
	c := NewConsole()
	if err := c.Gate(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Suspend()
	if !c.Suspended() {
		t.Fatal("not suspended")
	}
	// Gate blocks while suspended.
	released := make(chan error, 1)
	go func() { released <- c.Gate(context.Background()) }()
	select {
	case <-released:
		t.Fatal("gate passed while suspended")
	case <-time.After(20 * time.Millisecond):
	}
	c.Resume()
	select {
	case err := <-released:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("gate never released")
	}
	// Context cancellation unblocks a suspended gate.
	c.Suspend()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- c.Gate(ctx) }()
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("cancelled gate returned nil")
	}
	// Double suspend / double resume are harmless.
	c.Suspend()
	c.Resume()
	c.Resume()
	if c.Suspended() {
		t.Fatal("resume lost")
	}
}

func TestMetricsSeriesAndChart(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 20; i++ {
		m.Add("load:h1", time.Duration(i)*time.Second, float64(i%5))
	}
	m.Add("other", time.Second, 1)
	if got := m.Names(); len(got) != 2 || got[0] != "load:h1" {
		t.Fatalf("Names = %v", got)
	}
	s := m.Series("load:h1")
	if len(s) != 20 || s[3].V != 3 {
		t.Fatalf("series wrong: %v", s[:4])
	}
	chart := m.Chart("load:h1", 40, 8)
	if !strings.Contains(chart, "*") || !strings.Contains(chart, "load:h1") {
		t.Fatalf("chart missing content:\n%s", chart)
	}
	if empty := m.Chart("missing", 10, 4); !strings.Contains(empty, "no data") {
		t.Fatalf("empty chart = %q", empty)
	}
	// Flat series still renders (degenerate range).
	m.Add("flat", 0, 2)
	m.Add("flat", time.Second, 2)
	if c := m.Chart("flat", 10, 3); !strings.Contains(c, "*") {
		t.Fatalf("flat chart:\n%s", c)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Add(fmt.Sprintf("s%d", i%2), time.Duration(j), float64(j))
				_ = m.Series("s0")
			}
		}(i)
	}
	wg.Wait()
	if len(m.Series("s0"))+len(m.Series("s1")) != 800 {
		t.Fatal("samples lost")
	}
}

// TestMetricsSeriesIsBounded: a series fed for the life of a server
// stays at the window, in what Series returns and in what is held, and
// the points kept are the newest, in order.
func TestMetricsSeriesIsBounded(t *testing.T) {
	m := NewMetrics()
	const fed = 5*seriesWindow + 7
	for i := 0; i < fed; i++ {
		m.Add("task:Spin", time.Duration(i), float64(i))
		if held := len(m.series["task:Spin"]); held >= 2*seriesWindow {
			t.Fatalf("after %d adds the series holds %d points", i+1, held)
		}
	}
	s := m.Series("task:Spin")
	if len(s) != seriesWindow {
		t.Fatalf("Series returned %d points, want the window of %d", len(s), seriesWindow)
	}
	for i, p := range s {
		if want := float64(fed - seriesWindow + i); p.V != want {
			t.Fatalf("point %d = %v, want %v: not the newest window in order", i, p.V, want)
		}
	}
	if c := m.Chart("task:Spin", 20, 4); !strings.Contains(c, "*") {
		t.Fatalf("chart of a wrapped series:\n%s", c)
	}
}
