package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// goldenJSON holds the reference digests. The full-scale campaign digest
// for seed 42 is the digest of the tables in results/portbench.txt.
//
//go:embed testdata/goldens.json
var goldenJSON []byte

// goldenFile maps a digest class ("campaign" or "facade") and a scale
// ("<profiles>x<insts>") to each seed's reference digest.
type goldenFile map[string]map[string]map[string]string

func parseGoldens(data []byte) (goldenFile, error) {
	g := goldenFile{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("goldens: %w", err)
	}
	return g, nil
}

// goldenClass names the digest a workload is checked against: the three
// campaigns render the same tables, so they share one.
func goldenClass(workload string) string {
	if workload == facadeSerial {
		return "facade"
	}
	return "campaign"
}

func scaleKey(profiles int, insts uint64) string { return fmt.Sprintf("%dx%d", profiles, insts) }

func (g goldenFile) lookup(class, scale string, seed int64) (string, bool) {
	d, ok := g[class][scale][strconv.FormatInt(seed, 10)]
	return d, ok
}

func (g goldenFile) set(class, scale string, seed int64, digest string) {
	if g[class] == nil {
		g[class] = map[string]map[string]string{}
	}
	if g[class][scale] == nil {
		g[class][scale] = map[string]string{}
	}
	g[class][scale][strconv.FormatInt(seed, 10)] = digest
}

// updateGoldens merges digests into the goldens file at path.
func updateGoldens(path string, digests map[[2]string]map[int64]string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	g, err := parseGoldens(data)
	if err != nil {
		return err
	}
	for key, bySeed := range digests {
		for seed, d := range bySeed {
			g.set(key[0], key[1], seed, d)
		}
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
