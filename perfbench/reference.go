package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"
)

// referenceFile is the committed record of each workload's outputs at
// the reference seed.
type referenceFile struct {
	Seed      int64             `json:"seed"`
	Workloads map[string]output `json:"workloads"`
}

func loadReferences(data []byte) (map[string]output, error) {
	var f referenceFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if f.Seed != referenceSeed {
		return nil, fmt.Errorf("reference.json: seed %d, want %d", f.Seed, referenceSeed)
	}
	return f.Workloads, nil
}

// updateReference runs the workload once at the reference seed and
// records its output in the reference file at path, keeping the other
// workloads' entries.
func updateReference(w *workload, path string) error {
	f := referenceFile{Seed: referenceSeed, Workloads: map[string]output{}}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if f.Workloads, err = loadReferences(data); err != nil {
			return err
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	b := &bench{w: w, seed: referenceSeed + 1, deadline: time.Now()}
	r, _, err := b.runRep(w.shards, false)
	if err != nil {
		return err
	}
	if len(b.failures) > 0 {
		return fmt.Errorf("not recording a failed run: %s", b.failures[0])
	}
	f.Workloads[w.name] = r.out
	data, err = json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
