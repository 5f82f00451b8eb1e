package afg

import "fmt"

// Stats summarizes a graph's shape for reports and tooling.
type Stats struct {
	Tasks   int
	Edges   int
	Entries int
	Exits   int
	// Depth is the number of tasks on the longest path (hop count + 1).
	Depth int
	// Width is the largest number of tasks at the same depth — an upper
	// bound on exploitable task parallelism.
	Width int
	// AvgInDegree is edges / tasks.
	AvgInDegree float64
}

// ComputeStats derives Stats; it requires a valid DAG.
func (g *Graph) ComputeStats() (Stats, error) {
	sh, err := g.Shape()
	if err != nil {
		return Stats{}, err
	}
	s := Stats{Tasks: sh.n, Edges: sh.m, AvgInDegree: float64(sh.m) / float64(sh.n)}
	depth, width := make([]int, sh.n), make([]int, sh.n)
	// In topological order a task's depth is final when it is reached.
	for _, id := range sh.order {
		for _, c := range sh.children(id) {
			depth[c] = max(depth[c], depth[id]+1)
		}
		width[depth[id]]++
		s.Depth, s.Width = max(s.Depth, depth[id]+1), max(s.Width, width[depth[id]])
		if sh.inStart[id] == sh.inStart[id+1] {
			s.Entries++
		}
		if sh.outStart[id] == sh.outStart[id+1] {
			s.Exits++
		}
	}
	return s, nil
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("tasks=%d edges=%d entries=%d exits=%d depth=%d width=%d avg-in=%.2f",
		s.Tasks, s.Edges, s.Entries, s.Exits, s.Depth, s.Width, s.AvgInDegree)
}
