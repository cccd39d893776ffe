package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"portsim/internal/cpustack"
)

// ManifestSchema identifies the manifest format. Bump the suffix on any
// incompatible change; cmd/manifestcheck refuses unknown schemas.
const ManifestSchema = "portsim-manifest/v1"

// Cell outcomes.
const (
	OutcomeOK     = "ok"
	OutcomeFailed = "failed"
)

// ManifestCell records one experiment cell: the (machine, workload) pair,
// the hash of the exact machine configuration it ran, and what happened.
type ManifestCell struct {
	Workload   string `json:"workload"`
	Machine    string `json:"machine"`
	ConfigHash string `json:"config_hash"`
	// CellKey is the cell's content address (cellstore.Key.ID): the
	// machine and stream it ran with display names cleared, plus seed,
	// budget and fault. Cells sharing a key are one simulation.
	CellKey string `json:"cell_key,omitempty"`
	// Outcome is OutcomeOK or OutcomeFailed.
	Outcome string `json:"outcome"`
	// MemoHit marks a cell satisfied from the runner's memo cache; its
	// cycles and instructions describe the original simulation and are
	// excluded from the totals.
	MemoHit bool `json:"memo_hit,omitempty"`
	// StoreHit marks a cell restored from the durable cell store (-store):
	// like a memo hit, it was not simulated in this run and its cycles and
	// instructions are excluded from the totals. At most one of MemoHit and
	// StoreHit is set.
	StoreHit    bool    `json:"store_hit,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	Cycles      uint64  `json:"cycles"`
	Insts       uint64  `json:"insts"`
	Error       string  `json:"error,omitempty"`
	// CPIStack is the cell's cycle-accounting breakdown keyed by bucket
	// name (internal/cpustack), present only when the campaign ran with
	// accounting armed. Zero buckets are omitted; for an ok cell the
	// remaining buckets sum to exactly Cycles.
	CPIStack map[string]uint64 `json:"cpi_stack,omitempty"`
}

// ManifestTotals aggregates the cells.
type ManifestTotals struct {
	Cells    int `json:"cells"`
	Failed   int `json:"failed"`
	MemoHits int `json:"memo_hits"`
	// StoreHits counts cells restored from the durable store.
	StoreHits int `json:"store_hits,omitempty"`
	// SimCycles and SimInsts sum over simulated (non-memo-hit, successful)
	// cells only, matching the runner's own work accounting.
	SimCycles   uint64  `json:"sim_cycles"`
	SimInsts    uint64  `json:"sim_insts"`
	WallSeconds float64 `json:"wall_seconds"`
}

// Manifest ties a campaign's outputs back to its exact inputs: seeds,
// workloads, per-cell configuration hashes and outcomes, and the paths of
// every artifact the run produced.
type Manifest struct {
	Schema    string `json:"schema"`
	CreatedAt string `json:"created_at"` // RFC 3339
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`

	// Command is the argv the campaign ran with, for reproduction.
	Command []string `json:"command,omitempty"`

	Seed        int64    `json:"seed"`
	Insts       uint64   `json:"insts"`
	Workloads   []string `json:"workloads"`
	Parallel    int      `json:"parallel"`
	Experiments []string `json:"experiments,omitempty"`

	// ConfigHash fingerprints the whole campaign: seed, budget, workloads
	// and every distinct machine-configuration hash that ran.
	ConfigHash string `json:"config_hash"`

	// Artifact paths, as written (possibly relative to the working
	// directory of the run).
	TraceOut string   `json:"trace_out,omitempty"`
	Bundles  []string `json:"bundles,omitempty"`

	// Store summarises the durable cell store when the campaign ran with
	// one (-store); nil otherwise.
	Store *ManifestStore `json:"store,omitempty"`

	// Arenas summarises the shared trace-arena registry when the campaign
	// replayed materialised traces; nil when arenas were disabled.
	Arenas *ManifestArenas `json:"arenas,omitempty"`

	Cells  []ManifestCell `json:"cells"`
	Totals ManifestTotals `json:"totals"`

	// CPIStack aggregates the per-cell breakdowns over simulated ok cells
	// (memo and store hits excluded, matching SimCycles accounting). It
	// lives outside ManifestTotals so the totals stay a comparable struct.
	CPIStack map[string]uint64 `json:"cpi_stack,omitempty"`
}

// ManifestStore records the durable cell store a campaign ran against and
// how it behaved: the resume economics (hits versus re-simulated misses)
// and every degradation the run survived.
type ManifestStore struct {
	// Dir is the store directory as given on the command line.
	Dir string `json:"dir"`
	// Resumed marks a campaign started with -resume.
	Resumed bool `json:"resumed,omitempty"`
	// Fault is the -inject-store descriptor when store faults were armed.
	Fault string `json:"fault,omitempty"`
	// Hits/Misses/Puts mirror the store's operation counters at campaign
	// end; Quarantined and PutFailures count the trouble it absorbed.
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	PutFailures uint64 `json:"put_failures,omitempty"`
	Quarantined uint64 `json:"quarantined,omitempty"`
	// Degraded marks a store that shut itself off mid-campaign; the run
	// completed store-less.
	Degraded bool `json:"degraded,omitempty"`
}

// ManifestArenas records the shared trace-arena registry's behaviour over
// a campaign: how many traces were materialised (generate-once), how often
// cells replayed them, and how often the byte budget forced a cell back to
// live generation. Arenas never change results — every table is
// byte-identical with arenas on or off — so this section is purely a
// performance record.
type ManifestArenas struct {
	// BudgetBytes is the registry's configured ceiling (-arena-budget).
	BudgetBytes int64 `json:"budget_bytes"`
	// Count and Bytes describe residency at campaign end.
	Count int   `json:"count"`
	Bytes int64 `json:"bytes"`
	// Builds counts traces materialised; Hits counts acquisitions served
	// from an already-built arena.
	Builds uint64 `json:"builds"`
	Hits   uint64 `json:"hits"`
	// Fallbacks counts acquisitions that ran from live generation because
	// the budget had no room; Evictions counts idle arenas dropped to make
	// room.
	Fallbacks uint64 `json:"fallbacks,omitempty"`
	Evictions uint64 `json:"evictions,omitempty"`
}

// HashConfig fingerprints one machine-configuration JSON document. The
// short hex prefix keeps manifests and filenames readable; 48 bits is
// plenty for the tens of distinct configurations a campaign holds.
func HashConfig(cfgJSON []byte) string {
	sum := sha256.Sum256(cfgJSON)
	return hex.EncodeToString(sum[:6])
}

// Validate checks structural integrity: schema, timestamps, per-cell
// fields, and that the totals agree with the cells they summarise. It is
// the whole of cmd/manifestcheck.
func (m *Manifest) Validate() error {
	if m.Schema != ManifestSchema {
		return fmt.Errorf("manifest: schema %q, want %q", m.Schema, ManifestSchema)
	}
	if _, err := time.Parse(time.RFC3339, m.CreatedAt); err != nil {
		return fmt.Errorf("manifest: created_at %q is not RFC 3339: %v", m.CreatedAt, err)
	}
	if len(m.Workloads) == 0 {
		return fmt.Errorf("manifest: no workloads")
	}
	if m.Insts == 0 {
		return fmt.Errorf("manifest: zero instruction budget")
	}
	if m.Parallel < 1 {
		return fmt.Errorf("manifest: parallel %d, want >= 1", m.Parallel)
	}
	want := ManifestTotals{WallSeconds: m.Totals.WallSeconds}
	wantCPI := map[string]uint64{}
	simulated := map[string]int{} // cell key -> index of the cell that simulated it
	for i, c := range m.Cells {
		where := fmt.Sprintf("manifest: cell %d (%s on %s)", i, c.Workload, c.Machine)
		if c.Workload == "" || c.Machine == "" {
			return fmt.Errorf("manifest: cell %d missing workload or machine name", i)
		}
		if c.ConfigHash == "" {
			return fmt.Errorf("%s: missing config_hash", where)
		}
		switch c.Outcome {
		case OutcomeOK:
			if c.Error != "" {
				return fmt.Errorf("%s: outcome ok but error %q", where, c.Error)
			}
		case OutcomeFailed:
			if c.Error == "" {
				return fmt.Errorf("%s: outcome failed without an error", where)
			}
			want.Failed++
		default:
			return fmt.Errorf("%s: unknown outcome %q", where, c.Outcome)
		}
		if c.WallSeconds < 0 {
			return fmt.Errorf("%s: negative wall_seconds %v", where, c.WallSeconds)
		}
		if c.MemoHit && c.StoreHit {
			return fmt.Errorf("%s: both memo_hit and store_hit set", where)
		}
		if c.CellKey != "" && !c.MemoHit && !c.StoreHit {
			if j, dup := simulated[c.CellKey]; dup {
				return fmt.Errorf("%s: cells %d and %d both simulated cell key %s", where, j, i, c.CellKey)
			}
			simulated[c.CellKey] = i
		}
		if c.CPIStack != nil {
			snap, err := cpustack.FromMap(c.CPIStack)
			if err != nil {
				return fmt.Errorf("%s: %v", where, err)
			}
			if c.Outcome == OutcomeOK {
				if err := snap.CheckConservation(c.Cycles); err != nil {
					return fmt.Errorf("%s: %v", where, err)
				}
			}
		}
		switch {
		case c.MemoHit:
			want.MemoHits++
		case c.StoreHit:
			want.StoreHits++
		case c.Outcome == OutcomeOK:
			want.SimCycles += c.Cycles
			want.SimInsts += c.Insts
			for name, v := range c.CPIStack {
				wantCPI[name] += v
			}
		}
		want.Cells++
	}
	if m.Totals != want {
		return fmt.Errorf("manifest: totals %+v disagree with cells (want %+v)", m.Totals, want)
	}
	// The aggregate breakdown must re-derive from the cells, and — paired
	// with the per-cell conservation above — sum to exactly SimCycles.
	if len(wantCPI) != len(m.CPIStack) {
		return fmt.Errorf("manifest: cpi_stack has %d buckets, cells sum to %d", len(m.CPIStack), len(wantCPI))
	}
	for name, v := range wantCPI {
		if m.CPIStack[name] != v {
			return fmt.Errorf("manifest: cpi_stack[%s] = %d disagrees with cells (want %d)",
				name, m.CPIStack[name], v)
		}
	}
	if m.Totals.WallSeconds < 0 {
		return fmt.Errorf("manifest: negative total wall_seconds %v", m.Totals.WallSeconds)
	}
	if m.ConfigHash == "" {
		return fmt.Errorf("manifest: missing config_hash")
	}
	if m.Store != nil {
		if m.Store.Dir == "" {
			return fmt.Errorf("manifest: store summary without a directory")
		}
		if uint64(m.Totals.StoreHits) > m.Store.Hits {
			return fmt.Errorf("manifest: %d store-hit cells but the store reports only %d hits",
				m.Totals.StoreHits, m.Store.Hits)
		}
	} else if m.Totals.StoreHits != 0 {
		return fmt.Errorf("manifest: %d store-hit cells without a store summary", m.Totals.StoreHits)
	}
	if a := m.Arenas; a != nil {
		if a.BudgetBytes <= 0 {
			return fmt.Errorf("manifest: arena summary with budget %d, want > 0", a.BudgetBytes)
		}
		if a.Count < 0 || a.Bytes < 0 {
			return fmt.Errorf("manifest: negative arena residency (count %d, bytes %d)", a.Count, a.Bytes)
		}
		if a.Bytes > a.BudgetBytes {
			return fmt.Errorf("manifest: arena residency %d bytes exceeds budget %d", a.Bytes, a.BudgetBytes)
		}
		if a.Count > 0 && a.Bytes == 0 {
			return fmt.Errorf("manifest: %d resident arenas occupying zero bytes", a.Count)
		}
		if uint64(a.Count) > a.Builds {
			return fmt.Errorf("manifest: %d resident arenas but only %d builds", a.Count, a.Builds)
		}
	}
	return nil
}

// WriteManifest validates and writes the manifest as indented JSON.
func WriteManifest(path string, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadManifest parses and validates a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("manifest: %s: %v", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}
