package repository

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
