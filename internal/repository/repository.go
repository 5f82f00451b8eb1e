package repository

import (
	"encoding/json"
	"fmt"
	"os"
)

// Repository bundles one site's four databases, matching the paper's
// "each site has a site repository for storing user-accounts information,
// task and resource parameters that are used by the scheduler".
type Repository struct {
	Site        string
	Users       *UserAccountsDB
	Resources   *ResourceDB
	TaskPerf    *TaskPerfDB
	Constraints *ConstraintsDB
}

// New returns an empty repository for the named site.
func New(site string) *Repository {
	return &Repository{
		Site:        site,
		Users:       NewUserAccountsDB(),
		Resources:   NewResourceDB(),
		TaskPerf:    NewTaskPerfDB(),
		Constraints: NewConstraintsDB(),
	}
}

// RecordExecutions is the site's share of a run's write-back: of recs,
// the measurements taken on this site's hosts go into the
// task-performance database as one epoch (TaskPerfDB.RecordExecutions).
// It returns how many it applied; the rest belong to other sites or
// could not be applied.
func (r *Repository) RecordExecutions(recs []Execution) int {
	applied, _ := r.TaskPerf.RecordExecutions(recs, func(host string) bool {
		_, ok := r.Resources.View(host)
		return ok
	})
	return applied
}

// persisted is the on-disk JSON layout.
type persisted struct {
	Site        string             `json:"site"`
	Users       []UserAccount      `json:"users"`
	NextUserID  int                `json:"next_user_id"`
	Hosts       []ResourceInfo     `json:"hosts"`
	Tasks       []taskPerfSnapshot `json:"tasks"`
	Constraints []constraintRow    `json:"constraints"`
}

// MarshalJSON serializes the whole repository.
func (r *Repository) MarshalJSON() ([]byte, error) {
	users, next := r.Users.snapshot()
	p := persisted{
		Site:        r.Site,
		Users:       users,
		NextUserID:  next,
		Hosts:       r.Resources.snapshot(),
		Tasks:       r.TaskPerf.snapshot(),
		Constraints: r.Constraints.snapshot(),
	}
	return json.MarshalIndent(p, "", "  ")
}

// UnmarshalJSON restores a repository serialized by MarshalJSON.
func (r *Repository) UnmarshalJSON(data []byte) error {
	var p persisted
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("repository: decode: %w", err)
	}
	r.Site = p.Site
	if r.Users == nil {
		r.Users = NewUserAccountsDB()
	}
	if r.Resources == nil {
		r.Resources = NewResourceDB()
	}
	if r.TaskPerf == nil {
		r.TaskPerf = NewTaskPerfDB()
	}
	if r.Constraints == nil {
		r.Constraints = NewConstraintsDB()
	}
	r.Users.restore(p.Users, p.NextUserID)
	r.Resources.restore(p.Hosts)
	r.TaskPerf.restore(p.Tasks)
	r.Constraints.restore(p.Constraints)
	return nil
}

// SaveFile writes the repository to path as JSON.
func (r *Repository) SaveFile(path string) error {
	data, err := r.MarshalJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadFile reads a repository previously written by SaveFile.
func LoadFile(path string) (*Repository, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := New("")
	if err := r.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return r, nil
}
