package tasklib

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"vdce/internal/linalg"
	"vdce/internal/repository"
)

// The C3I (command, control, communications & intelligence) library the
// paper lists as an editor menu group. The pipeline is the classic
// surveillance flow: sensors observe targets, observations are fused,
// tracks are smoothed, threats are scored, and a report is produced.

// Track is one target estimate: position, velocity, and a classifier
// label. Sensors emit noisy Tracks; fusion and filtering refine them.
type Track struct {
	ID       int
	X, Y     float64 // position (km)
	VX, VY   float64 // velocity (km/s)
	Class    string  // "unknown", "friendly", "hostile"
	Strength float64 // detection confidence in (0, 1]
}

// Threat is a scored track produced by Threat_Evaluation.
type Threat struct {
	TrackID int
	Score   float64 // higher is more urgent
	Reason  string
}

// registerC3ILibrary adds the C3I library tasks.
func registerC3ILibrary(reg func(Spec)) {
	const nominalTargets = 64
	ops := float64(nominalTargets)

	reg(Spec{
		Name: "Sensor_Feed", Library: "c3i", InPorts: 0, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:     ops * 1000,
			CommunicationBytes: nominalTargets * 64,
			RequiredMemBytes:   1 << 20,
			BaseTime:           baseTimeFor(ops * 1000),
		},
		Fn: func(c *Context) ([]Value, error) {
			n, err := c.IntArg("targets", nominalTargets)
			if err != nil {
				return nil, err
			}
			seed, err := c.Int64Arg("seed", 1)
			if err != nil {
				return nil, err
			}
			noise, err := c.FloatArg("noise", 0.1)
			if err != nil {
				return nil, err
			}
			if n < 0 {
				return nil, fmt.Errorf("tasklib: Sensor_Feed targets=%d", n)
			}
			rng := linalg.SeededRand(seed)
			defer linalg.PutRand(rng)
			tracks := make([]Track, n)
			for i := range tracks {
				cls := "unknown"
				switch rng.Intn(3) {
				case 0:
					cls = "friendly"
				case 1:
					cls = "hostile"
				}
				tracks[i] = Track{
					ID:       i,
					X:        rng.Float64()*200 - 100 + rng.NormFloat64()*noise,
					Y:        rng.Float64()*200 - 100 + rng.NormFloat64()*noise,
					VX:       rng.NormFloat64() * 0.3,
					VY:       rng.NormFloat64() * 0.3,
					Class:    cls,
					Strength: 0.5 + rng.Float64()*0.5,
				}
			}
			return []Value{tracks}, nil
		},
	})

	reg(Spec{
		Name: "Data_Fusion", Library: "c3i", InPorts: 2, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:     ops * ops * 10,
			CommunicationBytes: 2 * nominalTargets * 64,
			RequiredMemBytes:   2 << 20,
			BaseTime:           baseTimeFor(ops * ops * 10),
			Parallelizable:     true,
			SerialFraction:     0.2,
		},
		Fn: func(c *Context) ([]Value, error) {
			a, err := trackInput(c, 0)
			if err != nil {
				return nil, err
			}
			b, err := trackInput(c, 1)
			if err != nil {
				return nil, err
			}
			return []Value{FuseTracks(a, b, 5.0)}, nil
		},
	})

	reg(Spec{
		Name: "Track_Filter", Library: "c3i", InPorts: 1, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:   ops * 100,
			RequiredMemBytes: 1 << 20,
			BaseTime:         baseTimeFor(ops * 100),
		},
		Fn: func(c *Context) ([]Value, error) {
			in, err := trackInput(c, 0)
			if err != nil {
				return nil, err
			}
			out := make([]Track, len(in))
			copy(out, in)
			// One alpha-beta smoothing step toward the predicted position.
			const alpha = 0.85
			for i := range out {
				px := out[i].X + out[i].VX
				py := out[i].Y + out[i].VY
				out[i].X = alpha*out[i].X + (1-alpha)*px
				out[i].Y = alpha*out[i].Y + (1-alpha)*py
			}
			return []Value{out}, nil
		},
	})

	reg(Spec{
		Name: "Threat_Evaluation", Library: "c3i", InPorts: 1, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:   ops * 200,
			RequiredMemBytes: 1 << 20,
			BaseTime:         baseTimeFor(ops * 200),
		},
		Fn: func(c *Context) ([]Value, error) {
			in, err := trackInput(c, 0)
			if err != nil {
				return nil, err
			}
			return []Value{EvaluateThreats(in)}, nil
		},
	})

	reg(Spec{
		Name: "Report_Generator", Library: "c3i", InPorts: 1, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:   ops * 50,
			RequiredMemBytes: 1 << 20,
			BaseTime:         baseTimeFor(ops * 50),
		},
		Fn: func(c *Context) ([]Value, error) {
			if len(c.In) < 1 {
				return nil, fmt.Errorf("tasklib: Report_Generator needs an input")
			}
			threats, ok := c.In[0].([]Threat)
			if !ok {
				return nil, fmt.Errorf("tasklib: input 0 is %T, want []Threat", c.In[0])
			}
			return []Value{threatReport(threats)}, nil
		},
	})
}

func trackInput(c *Context, i int) ([]Track, error) {
	if i < 0 || i >= len(c.In) {
		return nil, fmt.Errorf("tasklib: no input %d", i)
	}
	t, ok := c.In[i].([]Track)
	if !ok {
		return nil, fmt.Errorf("tasklib: input %d is %T, want []Track", i, c.In[i])
	}
	return t, nil
}

// FuseTracks merges two observation sets: tracks within gate km of each
// other are considered the same target and averaged weighted by strength;
// unmatched tracks pass through. The result is sorted by ID, and nil
// when both inputs are empty: the wire form tells nil from empty.
func FuseTracks(a, b []Track, gate float64) []Track {
	if len(a)+len(b) == 0 {
		return nil
	}
	used := make([]bool, len(b))
	out := make([]Track, 0, len(a)+len(b))
	for _, ta := range a {
		best, bestD := -1, gate
		for j, tb := range b {
			if used[j] {
				continue
			}
			d := math.Hypot(ta.X-tb.X, ta.Y-tb.Y)
			if d <= bestD {
				best, bestD = j, d
			}
		}
		if best == -1 {
			out = append(out, ta)
			continue
		}
		tb := b[best]
		used[best] = true
		wa, wb := ta.Strength, tb.Strength
		sum := wa + wb
		merged := Track{
			ID:       ta.ID,
			X:        (ta.X*wa + tb.X*wb) / sum,
			Y:        (ta.Y*wa + tb.Y*wb) / sum,
			VX:       (ta.VX*wa + tb.VX*wb) / sum,
			VY:       (ta.VY*wa + tb.VY*wb) / sum,
			Class:    ta.Class,
			Strength: math.Min(1, sum),
		}
		if merged.Class == "unknown" {
			merged.Class = tb.Class
		}
		out = append(out, merged)
	}
	for j, tb := range b {
		if !used[j] {
			out = append(out, tb)
		}
	}
	slices.SortFunc(out, func(x, y Track) int { return cmp.Compare(x.ID, y.ID) })
	return out
}

// EvaluateThreats scores tracks: hostile class, proximity to the origin
// (the defended asset), and inbound velocity all raise the score. Tracks
// scoring zero are omitted; if none scores, the result is nil. Results
// are sorted by descending score.
func EvaluateThreats(tracks []Track) []Threat {
	var out []Threat
	for _, t := range tracks {
		var score float64
		var reasons int
		if t.Class == "hostile" {
			score += 50
			reasons |= reasonHostile
		}
		dist := math.Hypot(t.X, t.Y)
		if dist < 50 {
			score += (50 - dist)
			reasons |= reasonClose
		}
		// Closing velocity: negative radial speed means inbound.
		if dist > 1e-9 {
			radial := (t.X*t.VX + t.Y*t.VY) / dist
			if radial < 0 {
				score += -radial * 100
				reasons |= reasonInbound
			}
		}
		score *= t.Strength
		if score > 0 {
			if out == nil {
				out = make([]Threat, 0, len(tracks))
			}
			out = append(out, Threat{TrackID: t.ID, Score: score, Reason: threatReasons[reasons]})
		}
	}
	// Every score here is > 0, so none is NaN and Compare agrees with < and >.
	slices.SortFunc(out, func(x, y Threat) int {
		return cmp.Or(cmp.Compare(y.Score, x.Score), cmp.Compare(x.TrackID, y.TrackID))
	})
	return out
}

// The reasons a track scores, as bits of an index into threatReasons.
const (
	reasonHostile = 1 << iota
	reasonClose
	reasonInbound
)

// threatReasons is every Threat.Reason, indexed by its reason bits: the
// reasons present, joined by "+" in the order hostile, close, inbound.
var threatReasons = [8]string{
	"", "hostile", "close", "hostile+close",
	"inbound", "hostile+inbound", "close+inbound", "hostile+close+inbound",
}

// threatReport renders Report_Generator's text: a header, the first ten
// threats one a line, and a count of the rest. The fields are padded as
// fmt's "%3d" and "%6.2f" pad them; the text is built in one buffer.
func threatReport(threats []Threat) string {
	shown := threats[:min(len(threats), 10)]
	// The header and tail lines, and a line a threat with fields at their
	// padded widths; a wider field only grows the buffer.
	size := 80
	for _, th := range shown {
		size += 40 + len(th.Reason)
	}
	var b strings.Builder
	b.Grow(size)
	var num [32]byte
	b.WriteString("C3I THREAT REPORT: ")
	b.Write(strconv.AppendInt(num[:0], int64(len(threats)), 10))
	b.WriteString(" threats\n")
	for _, th := range shown {
		b.WriteString("  track ")
		writeRight(&b, strconv.AppendInt(num[:0], int64(th.TrackID), 10), 3)
		b.WriteString(" score ")
		writeRight(&b, strconv.AppendFloat(num[:0], th.Score, 'f', 2, 64), 6)
		b.WriteString(" (")
		b.WriteString(th.Reason)
		b.WriteString(")\n")
	}
	if more := len(threats) - len(shown); more > 0 {
		b.WriteString("  ... ")
		b.Write(strconv.AppendInt(num[:0], int64(more), 10))
		b.WriteString(" more\n")
	}
	return b.String()
}

// writeRight writes s right-aligned in a field of width bytes.
func writeRight(b *strings.Builder, s []byte, width int) {
	for i := len(s); i < width; i++ {
		b.WriteByte(' ')
	}
	b.Write(s)
}
