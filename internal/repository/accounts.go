// Package repository implements the VDCE site repository: the four
// databases the paper attaches to every site — user accounts, resource
// performance, task performance, and task constraints. All databases are
// safe for concurrent use and serialize to JSON for site persistence.
package repository

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
)

// AccessDomain is the paper's "access domain type" field: how far a
// user's jobs may be scheduled.
type AccessDomain string

const (
	// DomainLocal restricts the user to the local site's resources.
	DomainLocal AccessDomain = "local"
	// DomainCampus allows the local site and its nearest neighbors.
	DomainCampus AccessDomain = "campus"
	// DomainGlobal allows every VDCE site.
	DomainGlobal AccessDomain = "global"
)

// UserAccount is the 5-tuple the paper stores per user: user name,
// password (stored salted+hashed here), user ID, priority, and access
// domain type.
type UserAccount struct {
	Name         string       `json:"name"`
	PasswordHash string       `json:"password_hash"`
	Salt         string       `json:"salt"`
	UserID       int          `json:"user_id"`
	Priority     int          `json:"priority"`
	Domain       AccessDomain `json:"domain"`
}

// UserAccountsDB is the user-accounts database used for authentication.
type UserAccountsDB struct {
	mu     sync.RWMutex
	users  map[string]*UserAccount
	nextID int
}

// NewUserAccountsDB returns an empty accounts database.
func NewUserAccountsDB() *UserAccountsDB {
	return &UserAccountsDB{users: make(map[string]*UserAccount), nextID: 1}
}

// Errors returned by account operations.
var (
	ErrUserExists  = errors.New("repository: user already exists")
	ErrUnknownUser = errors.New("repository: unknown user")
	ErrBadPassword = errors.New("repository: bad password")
	ErrEmptyName   = errors.New("repository: empty user name")
	ErrBadDomain   = errors.New("repository: invalid access domain")
	ErrEmptySecret = errors.New("repository: empty password")
	ErrBadPriority = errors.New("repository: priority must be non-negative")
)

func validDomain(d AccessDomain) bool {
	switch d {
	case DomainLocal, DomainCampus, DomainGlobal:
		return true
	}
	return false
}

func hashPassword(salt, password string) string {
	h := sha256.Sum256([]byte(salt + ":" + password))
	return hex.EncodeToString(h[:])
}

func newSalt() string {
	b := make([]byte, 16)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand failure is unrecoverable for account creation.
		panic(fmt.Sprintf("repository: crypto/rand: %v", err))
	}
	return hex.EncodeToString(b)
}

// AddUser creates an account and returns its assigned user ID.
func (db *UserAccountsDB) AddUser(name, password string, priority int, domain AccessDomain) (int, error) {
	if name == "" {
		return 0, ErrEmptyName
	}
	if password == "" {
		return 0, ErrEmptySecret
	}
	if priority < 0 {
		return 0, ErrBadPriority
	}
	if !validDomain(domain) {
		return 0, ErrBadDomain
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.users[name]; ok {
		return 0, ErrUserExists
	}
	salt := newSalt()
	acct := &UserAccount{
		Name:         name,
		Salt:         salt,
		PasswordHash: hashPassword(salt, password),
		UserID:       db.nextID,
		Priority:     priority,
		Domain:       domain,
	}
	db.nextID++
	db.users[name] = acct
	return acct.UserID, nil
}

// Authenticate verifies the password and returns a copy of the account.
func (db *UserAccountsDB) Authenticate(name, password string) (UserAccount, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	acct, ok := db.users[name]
	if !ok {
		return UserAccount{}, ErrUnknownUser
	}
	want := []byte(acct.PasswordHash)
	got := []byte(hashPassword(acct.Salt, password))
	if subtle.ConstantTimeCompare(want, got) != 1 {
		return UserAccount{}, ErrBadPassword
	}
	return *acct, nil
}

// Lookup returns a copy of the named account without authenticating.
func (db *UserAccountsDB) Lookup(name string) (UserAccount, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	acct, ok := db.users[name]
	if !ok {
		return UserAccount{}, ErrUnknownUser
	}
	return *acct, nil
}
