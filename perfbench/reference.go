package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"cocoa"
	"cocoa/internal/scenario"
)

// The simulation workloads draw their inputs from fixed seed pools, so the
// expected output of every input they can draw was recorded once, when the
// benchmark was defined (perfbench -record). Every output the benchmark
// produces is compared with these bytes.

// paperBlock is how many consecutive seeds one paper-replication request
// replicates; paperBlocks is how many distinct requests the pool holds.
const (
	paperBlock  = 4
	paperBlocks = 24
	swarmSeeds  = 64
	swarmRobots = 1000
)

// references is the content of perfbench/reference.json.
type references struct {
	// PaperSeeds[i] is scenario.Summarize of cocoa.DefaultConfig at seed
	// i+1; PaperReplications[b] is cocoa.RunReplication over seeds
	// 1+b*paperBlock .. (b+1)*paperBlock.
	PaperSeeds        []json.RawMessage `json:"paper_seeds"`
	PaperReplications []json.RawMessage `json:"paper_replications"`
	// SwarmSeeds[i] is scenario.Summarize of cocoa.SwarmConfig(1000) at
	// seed i+1.
	SwarmSeeds []json.RawMessage `json:"swarm_seeds"`
}

// refPath is where the recorded simulation references live.
func refPath(root string) string {
	return filepath.Join(root, "perfbench", "reference.json")
}

func loadReferences(root string) (*references, error) {
	b, err := os.ReadFile(refPath(root))
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	var r references
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	if len(r.PaperSeeds) != paperBlock*paperBlocks || len(r.PaperReplications) != paperBlocks || len(r.SwarmSeeds) != swarmSeeds {
		return nil, fmt.Errorf("references: %s holds %d/%d/%d entries, want %d/%d/%d", refPath(root),
			len(r.PaperSeeds), len(r.PaperReplications), len(r.SwarmSeeds), paperBlock*paperBlocks, paperBlocks, swarmSeeds)
	}
	return &r, nil
}

// sameJSON reports whether got (compact JSON) encodes exactly want.
func sameJSON(got []byte, want json.RawMessage) bool {
	var c bytes.Buffer
	if err := json.Compact(&c, want); err != nil {
		return false
	}
	return bytes.Equal(got, c.Bytes())
}

func paperConfig(seed int64) cocoa.Config {
	cfg := cocoa.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

func swarmConfig(seed int64) cocoa.Config {
	cfg := cocoa.SwarmConfig(swarmRobots)
	cfg.Seed = seed
	return cfg
}

// summaryJSON is the compact form the references hold for one run.
func summaryJSON(res *cocoa.Result) ([]byte, error) {
	return json.Marshal(scenario.Summarize(res))
}

// recordReferences reruns every input of the seed pools and rewrites
// reference.json. It is how the references were made; the benchmark only
// reads them.
func recordReferences(root string) error {
	var r references
	opts := cocoa.ExperimentOptions{Parallelism: cocoa.MaxParallelism()}
	for i := 0; i < paperBlock*paperBlocks; i++ {
		res, err := cocoa.Run(paperConfig(int64(i + 1)))
		if err != nil {
			return err
		}
		b, err := summaryJSON(res)
		if err != nil {
			return err
		}
		r.PaperSeeds = append(r.PaperSeeds, b)
	}
	for b := 0; b < paperBlocks; b++ {
		opts.Seed = int64(1 + b*paperBlock)
		rep, err := cocoa.RunReplication(opts, paperBlock)
		if err != nil {
			return err
		}
		j, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		r.PaperReplications = append(r.PaperReplications, j)
	}
	for i := 0; i < swarmSeeds; i++ {
		res, err := cocoa.Run(swarmConfig(int64(i + 1)))
		if err != nil {
			return err
		}
		b, err := summaryJSON(res)
		if err != nil {
			return err
		}
		r.SwarmSeeds = append(r.SwarmSeeds, b)
	}
	out, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(refPath(root), append(out, '\n'), 0o644)
}
