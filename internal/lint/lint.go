// Package lint is the portlint driver: it runs the analyzer suite over
// packages loaded by internal/lint/loader, applies //portlint:ignore
// suppressions and returns the findings in a stable order. Suppressed findings are retained with
// Suppressed set rather than dropped, so the -json output can carry
// suppression state and the -suppressions audit can detect stale
// directives; text output and exit codes consider only active findings.
// cmd/portlint is a thin wrapper; the repository's self-test runs the same
// entrypoints in-process.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"portsim/internal/lint/analysis"
	"portsim/internal/lint/configbounds"
	"portsim/internal/lint/counterhygiene"
	"portsim/internal/lint/cyclemath"
	"portsim/internal/lint/detrand"
	"portsim/internal/lint/escapegate"
	"portsim/internal/lint/floatcmp"
	"portsim/internal/lint/hotpath"
	"portsim/internal/lint/hotpathclosure"
	"portsim/internal/lint/layerimports"
	"portsim/internal/lint/maporder"
	"portsim/internal/lint/recoverhygiene"
)

// Suite returns the full portlint analyzer suite.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		configbounds.Analyzer,
		counterhygiene.Analyzer,
		cyclemath.Analyzer,
		detrand.Analyzer,
		escapegate.Analyzer,
		floatcmp.Analyzer,
		hotpath.Analyzer,
		hotpathclosure.Analyzer,
		layerimports.Analyzer,
		maporder.Analyzer,
		recoverhygiene.Analyzer,
	}
}

// Finding is one diagnostic resolved to a concrete source position.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string

	// Chain is the root→sink call chain for whole-program diagnostics
	// (hotpathclosure, escapegate); nil for per-site findings.
	Chain []string

	// Suppressed marks a finding silenced by a //portlint:ignore directive.
	// Suppressed findings never fail a lint run; they are kept for the
	// -json suppression state and the stale-suppression audit.
	Suppressed bool
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Position, f.Analyzer, f.Message)
}

// Active filters findings down to the unsuppressed ones that gate CI.
func Active(findings []Finding) []Finding {
	var out []Finding
	for _, f := range findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// Analyze runs the analyzers over already-loaded packages.
func Analyze(pkgs []*analysis.Package, analyzers ...*analysis.Analyzer) ([]Finding, error) {
	if len(analyzers) == 0 {
		analyzers = Suite()
	}
	if len(pkgs) == 0 {
		return nil, nil
	}
	fset := pkgs[0].Fset
	suppressed := suppressionIndex(Directives(pkgs))

	var findings []Finding
	report := func(name string) func(analysis.Diagnostic) {
		return func(d analysis.Diagnostic) {
			pos := fset.Position(d.Pos)
			findings = append(findings, Finding{
				Analyzer:   name,
				Position:   pos,
				Message:    d.Message,
				Chain:      d.Chain,
				Suppressed: suppressed[suppressionKey{pos.Filename, pos.Line, name}],
			})
		}
	}
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range pkgs {
				pass := &analysis.Pass{
					Analyzer:  a,
					Fset:      fset,
					Files:     pkg.Files,
					Pkg:       pkg.Types,
					TypesInfo: pkg.TypesInfo,
					Report:    report(a.Name),
				}
				if err := a.Run(pass); err != nil {
					return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.Path, err)
				}
			}
		}
		if a.RunModule != nil {
			pass := &analysis.ModulePass{
				Analyzer: a,
				Fset:     fset,
				Pkgs:     pkgs,
				Report:   report(a.Name),
			}
			if err := a.RunModule(pass); err != nil {
				return nil, fmt.Errorf("lint: %s module pass: %v", a.Name, err)
			}
		}
	}
	// Stable order: position, then analyzer, then message — the message
	// tie-break keeps same-position findings from the same analyzer (for
	// example two escape diagnostics on one line) in a byte-stable order
	// for -json.
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings, nil
}

// suppressionKey addresses one (file, line, analyzer) suppression.
type suppressionKey struct {
	file     string
	line     int
	analyzer string
}

const ignorePrefix = "//portlint:ignore"

// Directive is one //portlint:ignore comment in the analyzed sources.
type Directive struct {
	Position token.Position
	// Analyzers are the comma-separated analyzer names the directive
	// silences.
	Analyzers []string
	// Reason is the invariant comment after the analyzer list; the
	// -suppressions audit requires it to be non-empty.
	Reason string
}

// Directives collects every //portlint:ignore directive in the loaded
// packages, in deterministic (package, file, position) order. A directive
// silences the named analyzers on its own line and on the line below, which
// covers both trailing comments and standalone comment lines above the
// flagged statement.
func Directives(pkgs []*analysis.Package) []Directive {
	var dirs []Directive
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, group := range f.Comments {
				for _, c := range group.List {
					rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						continue
					}
					var names []string
					for _, name := range strings.Split(fields[0], ",") {
						if name != "" {
							names = append(names, name)
						}
					}
					if len(names) == 0 {
						continue
					}
					dirs = append(dirs, Directive{
						Position:  pkg.Fset.Position(c.Pos()),
						Analyzers: names,
						Reason:    strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0])),
					})
				}
			}
		}
	}
	return dirs
}

// suppressionIndex expands directives into the per-line lookup Analyze
// consults.
func suppressionIndex(dirs []Directive) map[suppressionKey]bool {
	sup := make(map[suppressionKey]bool)
	for _, d := range dirs {
		for _, name := range d.Analyzers {
			sup[suppressionKey{d.Position.Filename, d.Position.Line, name}] = true
			sup[suppressionKey{d.Position.Filename, d.Position.Line + 1, name}] = true
		}
	}
	return sup
}
