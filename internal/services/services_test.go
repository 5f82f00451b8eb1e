package services

import "testing"

// TestConsoleSuspended: Suspend and Resume flip what Suspended reports —
// what a task's controller reads before it starts — and a repeated
// Suspend or Resume changes nothing.
func TestConsoleSuspended(t *testing.T) {
	c := NewConsole()
	steps := []struct {
		name string
		op   func()
		want bool
	}{
		{"new", func() {}, false},
		{"suspend", c.Suspend, true},
		{"suspend again", c.Suspend, true},
		{"resume", c.Resume, false},
		{"resume again", c.Resume, false},
		{"suspend after resume", c.Suspend, true},
	}
	for _, s := range steps {
		s.op()
		if got := c.Suspended(); got != s.want {
			t.Fatalf("after %s: Suspended() = %v, want %v", s.name, got, s.want)
		}
	}
}
