package repository

import (
	"errors"
	"testing"
)

func TestConstraints(t *testing.T) {
	db := NewConstraintsDB()
	if err := db.SetLocation("lu", "h1", "/opt/vdce/bin/lu"); err != nil {
		t.Fatal(err)
	}
	if err := db.SetLocation("lu", "h2", "/usr/local/bin/lu"); err != nil {
		t.Fatal(err)
	}
	p, err := db.Location("lu", "h1")
	if err != nil || p != "/opt/vdce/bin/lu" {
		t.Fatalf("Location = %q, %v", p, err)
	}
	if _, err := db.Location("lu", "h3"); !errors.Is(err, ErrNoLocation) {
		t.Fatalf("missing location: %v", err)
	}
	if !db.HasTask("lu", "h2") || db.HasTask("lu", "h3") || db.HasTask("nope", "h1") {
		t.Fatal("HasTask wrong")
	}
	hs := db.HostsWithTask("lu")
	if len(hs) != 2 || hs[0] != "h1" || hs[1] != "h2" {
		t.Fatalf("HostsWithTask = %v", hs)
	}
	db.RemoveHost("h1")
	if db.HasTask("lu", "h1") {
		t.Fatal("RemoveHost did not drop location")
	}
	if err := db.SetLocation("", "h", "p"); err == nil {
		t.Fatal("empty task accepted")
	}
	if err := db.InstallEverywhere("mm", "/bin/mm", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if !db.HasTask("mm", "a") || !db.HasTask("mm", "b") {
		t.Fatal("InstallEverywhere incomplete")
	}
	if err := db.InstallEverywhere("mm", "", []string{"a"}); err == nil {
		t.Fatal("empty path accepted")
	}
}
