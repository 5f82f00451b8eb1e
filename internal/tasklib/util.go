package tasklib

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"vdce/internal/repository"
)

// registerUtilLibrary adds small structural tasks used by tests,
// benchmarks, and synthetic workloads.
func registerUtilLibrary(reg func(Spec)) {
	reg(Spec{
		Name: "Pass_Through", Library: "util", InPorts: 1, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps: 1000,
			BaseTime:       baseTimeFor(1000),
		},
		Fn: func(c *Context) ([]Value, error) {
			if len(c.In) < 1 {
				return nil, fmt.Errorf("tasklib: Pass_Through needs an input")
			}
			return []Value{c.In[0]}, nil
		},
	})

	reg(Spec{
		Name: "Spin", Library: "util", InPorts: 0, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps: 1e6,
			BaseTime:       baseTimeFor(1e6),
		},
		// Spin holds its host for ms_arg milliseconds, waiting on a
		// timer rather than burning a core, and outputs ms_arg. Used to
		// occupy a host for a known time.
		Fn: func(c *Context) ([]Value, error) {
			ms, err := c.IntArg("ms", 1)
			if err != nil {
				return nil, err
			}
			time.Sleep(time.Duration(ms) * time.Millisecond)
			return []Value{float64(ms)}, nil
		},
	})

	reg(Spec{
		Name: "Checksum", Library: "util", InPorts: 1, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps: 1e5,
			BaseTime:       baseTimeFor(1e5),
		},
		Fn: func(c *Context) ([]Value, error) {
			if len(c.In) < 1 {
				return nil, fmt.Errorf("tasklib: Checksum needs an input")
			}
			data, err := EncodeValue(c.In[0])
			if err != nil {
				return nil, err
			}
			sum := sha256.Sum256(data)
			return []Value{hex.EncodeToString(sum[:])}, nil
		},
	})

	reg(Spec{
		Name: "Synthetic_Work", Library: "util", InPorts: 2, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:     5e6,
			CommunicationBytes: 1 << 16,
			RequiredMemBytes:   1 << 20,
			BaseTime:           baseTimeFor(5e6),
			Parallelizable:     true,
			SerialFraction:     0.25,
		},
		// Synthetic_Work tolerates missing inputs so workload generators
		// can wire arbitrary DAG shapes over it; it emits a deterministic
		// function of its inputs.
		Fn: func(c *Context) ([]Value, error) {
			var acc float64 = 1
			for _, v := range c.In {
				if f, ok := v.(float64); ok {
					acc += f
				}
			}
			reps, err := c.IntArg("reps", 1000)
			if err != nil {
				return nil, err
			}
			for i := 0; i < reps; i++ {
				acc = acc*1.0000001 + 0.5
			}
			return []Value{acc}, nil
		},
	})
}
