package repository

import "testing"

func TestConstraints(t *testing.T) {
	db := NewConstraintsDB()
	if err := db.SetLocation("lu", "h1", "/opt/vdce/bin/lu"); err != nil {
		t.Fatal(err)
	}
	if err := db.SetLocation("lu", "h2", "/usr/local/bin/lu"); err != nil {
		t.Fatal(err)
	}
	if !db.HasTask("lu", "h2") || db.HasTask("lu", "h3") || db.HasTask("nope", "h1") {
		t.Fatal("HasTask wrong")
	}
	db.RemoveHost("h1")
	if db.HasTask("lu", "h1") {
		t.Fatal("RemoveHost did not drop location")
	}
	if err := db.SetLocation("", "h", "p"); err == nil {
		t.Fatal("empty task accepted")
	}
	if err := db.SetLocation("mm", "a", ""); err == nil {
		t.Fatal("empty path accepted")
	}
}
