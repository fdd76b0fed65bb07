// Command census enforces the two deletion rules of DESIGN.md §5 over the
// whole module, from one type-checked load.
//
// The configuration rule: an exported field of a struct named Config,
// *Config or Options must be set by some non-test code in the module. A
// field nobody sets is a constant, and the knob, its default branch and the
// code serving its other values are to be deleted instead of kept. A write
// is a composite-literal key, or the target of an assignment or ++/--;
// writes inside the struct's own withDefaults method do not count.
//
// The reach rule: a function or method declared in a non-test file must be
// reachable from the main or an init of some package, or be listed in
// reachKeep with the test that needs it. A function no binary reaches is
// not a feature; it is deleted together with the types, fields and tests
// that exist only for it. An edge is any mention of a function in a body:
// a call, a method value, a function value. A package-level initialiser
// runs in every binary that links the package, so what it names is
// reached. A method is reached through an interface when its receiver's
// method set implements one the program can convert it to
// (types.Implements, the standard library's interfaces included); sharing
// a method's name with an interface is not enough.
//
// It type-checks every package of the module from source, tests included,
// against the export data `go list -export` produces (offline, a few
// seconds). Fields and functions are matched across packages by the file
// and line of their declaration, which export data carries.
//
// Usage (from anywhere inside the module):
//
//	go run ./scripts/census
//
// It prints one line per config struct with its field count and one line
// of function counts, then one line per violation, naming the test files
// that do set the field or call the function, and exits with status 1 if
// there is any. Exit status 2 is a failure to load or type-check the
// module.
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

func main() {
	fields, funcs, err := census(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "census:", err)
		os.Exit(2)
	}
	ok := report(os.Stdout, fields)
	if !reportReach(os.Stdout, funcs, reachKeep) || !ok {
		os.Exit(1)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// census loads the module dir is in and returns its config fields, sorted
// by name, with their writers filled in, and its functions by declaration
// key, with their callees, roots and test callers filled in.
func census(dir string) ([]*field, map[string]*function, error) {
	mod := exec.Command("go", "list", "-m", "-f", "{{.Dir}} {{.Path}}")
	mod.Dir = dir
	out, err := mod.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list -m: %w", err)
	}
	root, module, _ := strings.Cut(strings.TrimSpace(string(out)), " ")
	cmd := exec.Command("go", "list", "-export", "-deps", "-test", "-json", "./...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err = cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list -export: %w\n%s", err, stderr.Bytes())
	}
	exports := map[string]string{} // package ID → export data file
	var units []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list output: %w", err)
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

	c := &checker{fset: token.NewFileSet(), module: module, byDecl: map[string]*field{}, funcs: map[string]*function{}}
	c.asserted = assertedInterfaces(c.fset)
	var checked []*unit
	for _, p := range units {
		u, err := c.check(p, exports)
		if err != nil {
			return nil, nil, err
		}
		u.test = p.ForTest != ""
		checked = append(checked, u)
	}
	// Declarations first, from every unit, so a write or a call is
	// recognised whichever package it is in.
	for _, u := range checked {
		c.declare(u)
		c.declareFuncs(u)
	}
	for _, u := range checked {
		c.writes(u)
		c.references(u)
		if !u.test {
			c.satisfies(u)
		}
	}
	fields := make([]*field, 0, len(c.byDecl))
	for _, f := range c.byDecl {
		fields = append(fields, f)
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].name < fields[j].name })
	return fields, c.funcs, nil
}

// unit is one type-checked package variant.
type unit struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	test  bool // a variant compiled with test files
}

type checker struct {
	fset   *token.FileSet
	module string               // module path
	byDecl map[string]*field    // key of the declaration → field
	funcs  map[string]*function // key of the declaration → function
	// asserted holds the interfaces no package scope names.
	asserted []*types.Interface
}

// check parses and type-checks one listed package from source. Imports
// come from export data through the package's own ImportMap, so an
// external test sees the test variant of the package it tests.
func (c *checker) check(p *listedPackage, exports map[string]string) (*unit, error) {
	u := &unit{info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
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

// key identifies a field or function by where it is declared. Export data
// keeps the file and line of a declaration and drops the column, so the
// name tells apart declarations sharing a line.
func (c *checker) key(f types.Object) string {
	at := c.fset.Position(f.Pos())
	return fmt.Sprintf("%s:%d:%s", at.Filename, at.Line, f.Name())
}

func isTestFile(name string) bool { return strings.HasSuffix(name, "_test.go") }

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
