// Command configcensus enforces the configuration rule of DESIGN.md: an
// exported field of a struct named Config, *Config or Options must be set
// by some non-test code in the module. A field nobody sets is a constant,
// and the knob, its default branch and the code serving its other values
// are to be deleted instead of kept.
//
// It type-checks every package of the module from source, tests included,
// against the export data `go list -export` produces (offline, a few
// seconds), and records every write to such a field: a composite-literal
// key, or the target of an assignment or ++/--. Writes inside the struct's
// own withDefaults method do not count. Fields are matched across packages
// by the file and line of their declaration, which export data carries.
//
// Usage (from anywhere inside the module):
//
//	go run ./scripts/configcensus
//
// It prints one line per struct with its field count, then one line per
// field without a writer, naming the test files that do set it, and exits
// with status 1 if there is any. Exit status 2 is a failure to load or
// type-check the module.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// testSeams are the fields only tests set, on purpose: each lets a test
// substitute a fake for something the production value reaches outside the
// process for. An entry that gains a non-test writer, or loses its test
// writer, is reported as stale.
var testSeams = map[string]string{
	"reprod.Config.Lookup":        "server_test.go serves a fake experiment table",
	"reprod.Config.Registry":      "server_test.go reads the server's counters from its own registry",
	"reprod.Config.Version":       "server_test.go pins the version that keys the result cache",
	"reprod.Config.ForceGrace":    "server_test.go shortens the wait between a soft and a forced cancel",
	"crawler.ScanConfig.Observer": "crawler_test.go records the scan's probe order",
}

// listedPackage is the subset of `go list -json` output the census reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	ForTest    string
	Module     *struct{ Main bool }
	GoFiles    []string
	ImportMap  map[string]string
}

// field is one exported field of a config struct.
type field struct {
	name     string // pkg.Struct.Field
	strct    string // pkg.Struct
	declared token.Position
	writers  map[string]bool // non-test write positions
	tests    map[string]bool // test files that write it
}

func main() {
	fields, err := census()
	if err != nil {
		fmt.Fprintln(os.Stderr, "configcensus:", err)
		os.Exit(2)
	}
	if !report(os.Stdout, fields) {
		os.Exit(1)
	}
}

// report prints the per-struct counts and every violation, and returns
// whether the census is clean.
func report(w io.Writer, fields []*field) bool {
	counts := map[string]int{}
	var structs []string
	for _, f := range fields {
		if counts[f.strct] == 0 {
			structs = append(structs, f.strct)
		}
		counts[f.strct]++
	}
	sort.Strings(structs)
	for _, s := range structs {
		fmt.Fprintf(w, "%-32s %2d fields\n", s, counts[s])
	}
	fmt.Fprintf(w, "%-32s %2d fields, %d test seams\n", "total", len(fields), len(testSeams))

	clean := true
	seen := map[string]bool{}
	for _, f := range fields {
		_, seam := testSeams[f.name]
		seen[f.name] = true
		switch {
		case seam && (len(f.writers) > 0 || len(f.tests) == 0):
			clean = false
			fmt.Fprintf(w, "%s: stale test seam: %s has %d non-test and %d test writers; drop it from testSeams\n",
				f.declared, f.name, len(f.writers), len(f.tests))
		case !seam && len(f.writers) == 0:
			clean = false
			who := "no code at all"
			if len(f.tests) > 0 {
				who = "only " + strings.Join(sortedKeys(f.tests), ", ")
			}
			fmt.Fprintf(w, "%s: %s is set by %s: make it a constant\n", f.declared, f.name, who)
		}
	}
	for _, name := range sortedKeys(testSeams) {
		if !seen[name] {
			clean = false
			fmt.Fprintf(w, "stale test seam: %s does not exist; drop it from testSeams\n", name)
		}
	}
	return clean
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// isConfigName reports whether a struct type of this name is held to the
// rule.
func isConfigName(name string) bool {
	return strings.HasSuffix(name, "Config") || name == "Options"
}

// census loads the module and returns its config fields, sorted by name,
// with their writers filled in.
func census() ([]*field, error) {
	root, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		return nil, fmt.Errorf("go list -m: %w", err)
	}
	cmd := exec.Command("go", "list", "-export", "-deps", "-test", "-json", "./...")
	cmd.Dir = strings.TrimSpace(string(root))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w\n%s", err, stderr.Bytes())
	}
	exports := map[string]string{} // package ID → export data file
	var units []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		exports[p.ImportPath] = p.Export
		path, _, _ := strings.Cut(p.ImportPath, " [")
		switch {
		case p.Module == nil || !p.Module.Main || strings.HasSuffix(p.ImportPath, ".test"):
			// Not ours, or the generated test main.
		case p.ForTest != "" && path != p.ForTest && path != p.ForTest+"_test":
			// A dependency recompiled for another package's test.
		default:
			units = append(units, p)
		}
	}

	c := &checker{fset: token.NewFileSet(), byDecl: map[string]*field{}}
	var checked []*unit
	for _, p := range units {
		u, err := c.check(p, exports)
		if err != nil {
			return nil, err
		}
		checked = append(checked, u)
	}
	// Declarations first, from every unit, so a write is recognised
	// whichever package it is in.
	for _, u := range checked {
		c.declare(u)
	}
	for _, u := range checked {
		c.writes(u)
	}
	fields := make([]*field, 0, len(c.byDecl))
	for _, f := range c.byDecl {
		fields = append(fields, f)
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].name < fields[j].name })
	return fields, nil
}

// unit is one type-checked package variant.
type unit struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

type checker struct {
	fset   *token.FileSet
	byDecl map[string]*field // key of the declaration → field
}

// check parses and type-checks one listed package from source. Imports
// come from export data through the package's own ImportMap, so an
// external test sees the test variant of the package it tests.
func (c *checker) check(p *listedPackage, exports map[string]string) (*unit, error) {
	u := &unit{info: &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}}
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		u.files = append(u.files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := p.ImportMap[path]; ok {
			path = mapped
		}
		file := exports[path]
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	conf := types.Config{Importer: importer.ForCompiler(c.fset, "gc", lookup)}
	path, _, _ := strings.Cut(p.ImportPath, " [")
	pkg, err := conf.Check(path, c.fset, u.files, u.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", p.ImportPath, err)
	}
	u.pkg = pkg
	return u, nil
}

// key identifies a field by where it is declared. Export data keeps the
// file and line of a declaration and drops the column, so the name tells
// apart fields sharing a line.
func (c *checker) key(f types.Object) string {
	at := c.fset.Position(f.Pos())
	return fmt.Sprintf("%s:%d:%s", at.Filename, at.Line, f.Name())
}

func isTestFile(name string) bool { return strings.HasSuffix(name, "_test.go") }

// declare records the exported fields of the config structs the unit
// declares in non-test files.
func (c *checker) declare(u *unit) {
	scope := u.pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !isConfigName(name) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok || isTestFile(c.fset.Position(tn.Pos()).Filename) {
			continue
		}
		strct := u.pkg.Name() + "." + name
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() || c.byDecl[c.key(f)] != nil {
				continue
			}
			c.byDecl[c.key(f)] = &field{
				name: strct + "." + f.Name(), strct: strct,
				declared: c.fset.Position(f.Pos()),
				writers:  map[string]bool{}, tests: map[string]bool{},
			}
		}
	}
}

// writes records every write to a config field in the unit's files.
func (c *checker) writes(u *unit) {
	for _, file := range u.files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			own := "" // the struct whose withDefaults this is
			if ok && fd.Name.Name == "withDefaults" && fd.Recv != nil && len(fd.Recv.List) == 1 {
				if tv, ok := u.info.Types[fd.Recv.List[0].Type]; ok {
					own = structName(tv.Type)
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					tv, ok := u.info.Types[n]
					if !ok {
						break
					}
					st, ok := deref(tv.Type).Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								c.note(u.info.Uses[id], id.Pos(), own)
							}
						} else if i < st.NumFields() {
							c.note(st.Field(i), elt.Pos(), own)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						c.noteTarget(u, lhs, own)
					}
				case *ast.IncDecStmt:
					c.noteTarget(u, n.X, own)
				}
				return true
			})
		}
	}
}

// noteTarget records a write through the selector expression lhs, if it
// names a config field.
func (c *checker) noteTarget(u *unit, lhs ast.Expr, own string) {
	if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
		if s := u.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			c.note(s.Obj(), sel.Sel.Pos(), own)
		}
	}
}

// note records one write at pos to obj, when obj is a config field and the
// write is not in its own struct's withDefaults.
func (c *checker) note(obj types.Object, pos token.Pos, own string) {
	if obj == nil {
		return
	}
	f := c.byDecl[c.key(obj)]
	if f == nil || f.strct == own {
		return
	}
	at := c.fset.Position(pos)
	if isTestFile(at.Filename) {
		f.tests[filepath.Base(at.Filename)] = true
	} else {
		f.writers[at.String()] = true
	}
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// structName renders a (pointer to a) named type as pkg.Name, the form
// field.strct has.
func structName(t types.Type) string {
	if n, ok := deref(t).(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Name() + "." + n.Obj().Name()
	}
	return ""
}
