package services

import (
	"context"
	"testing"
	"time"
)

func TestConsoleGate(t *testing.T) {
	c := NewConsole()
	if err := c.Gate(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Suspend()
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
	ctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := c.Gate(ctx); err != nil {
		t.Fatal("resume lost")
	}
}
