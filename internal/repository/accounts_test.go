package repository

import (
	"errors"
	"sync"
	"testing"
)

func TestAddAndAuthenticate(t *testing.T) {
	db := NewUserAccountsDB()
	id, err := db.AddUser("user_k", "secret", 5, DomainCampus)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("first user ID = %d, want 1", id)
	}
	acct, err := db.Authenticate("user_k", "secret")
	if err != nil {
		t.Fatal(err)
	}
	if acct.Priority != 5 || acct.Domain != DomainCampus || acct.UserID != 1 {
		t.Fatalf("account fields wrong: %+v", acct)
	}
	if acct.PasswordHash == "secret" {
		t.Fatal("password stored in clear")
	}
	if _, err := db.Authenticate("user_k", "wrong"); !errors.Is(err, ErrBadPassword) {
		t.Fatalf("wrong password: got %v", err)
	}
	if _, err := db.Authenticate("nobody", "x"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("unknown user: got %v", err)
	}
}

func TestAddUserValidation(t *testing.T) {
	db := NewUserAccountsDB()
	if _, err := db.AddUser("", "p", 0, DomainLocal); !errors.Is(err, ErrEmptyName) {
		t.Fatalf("empty name: %v", err)
	}
	if _, err := db.AddUser("u", "", 0, DomainLocal); !errors.Is(err, ErrEmptySecret) {
		t.Fatalf("empty password: %v", err)
	}
	if _, err := db.AddUser("u", "p", -1, DomainLocal); !errors.Is(err, ErrBadPriority) {
		t.Fatalf("bad priority: %v", err)
	}
	if _, err := db.AddUser("u", "p", 0, "galactic"); !errors.Is(err, ErrBadDomain) {
		t.Fatalf("bad domain: %v", err)
	}
	if _, err := db.AddUser("u", "p", 0, DomainLocal); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddUser("u", "p2", 0, DomainLocal); !errors.Is(err, ErrUserExists) {
		t.Fatalf("duplicate: %v", err)
	}
}

func TestUserIDsIncrease(t *testing.T) {
	db := NewUserAccountsDB()
	for i := 1; i <= 4; i++ {
		id, err := db.AddUser(string(rune('a'+i)), "p", 0, DomainGlobal)
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("ID %d, want %d", id, i)
		}
	}
}

func TestRemoveAndLookup(t *testing.T) {
	db := NewUserAccountsDB()
	if _, err := db.AddUser("u", "p", 0, DomainLocal); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Lookup("u"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Lookup("nobody"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("unknown user: %v", err)
	}
}

func TestAccountsConcurrent(t *testing.T) {
	db := NewUserAccountsDB()
	if _, err := db.AddUser("shared", "pw", 1, DomainGlobal); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := db.Authenticate("shared", "pw"); err != nil {
					t.Errorf("auth: %v", err)
					return
				}
				_, _ = db.AddUser("shared", "pw", 1, DomainGlobal) // expected to fail
				_, _ = db.Lookup("shared")
			}
		}(i)
	}
	wg.Wait()
}

func TestSaltsDiffer(t *testing.T) {
	db := NewUserAccountsDB()
	if _, err := db.AddUser("a", "same", 0, DomainLocal); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddUser("b", "same", 0, DomainLocal); err != nil {
		t.Fatal(err)
	}
	ua, _ := db.Lookup("a")
	ub, _ := db.Lookup("b")
	if ua.Salt == ub.Salt || ua.PasswordHash == ub.PasswordHash {
		t.Fatal("same password should salt to different hashes")
	}
}
