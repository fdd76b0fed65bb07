package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// testSeams are the fields only tests set, on purpose: each lets a test
// substitute a fake for something the production value reaches outside the
// process for. An entry that gains a non-test writer, or loses its test
// writer, is reported as stale.
var testSeams = map[string]string{
	"reprod.Config.Lookup":         "server_test.go serves a fake experiment table",
	"reprod.Config.Registry":       "server_test.go reads the server's counters from its own registry",
	"reprod.Config.Version":        "server_test.go pins the version that keys the result cache",
	"reprod.Config.ForceGrace":     "server_test.go shortens the wait between a soft and a forced cancel",
	"tcpnet.ServerConfig.OmitSelf": "tcpnet_test.go's TestMaliciousServerDetectedOverTCP plays the flooder that never advertises itself",
}

// field is one exported field of a config struct.
type field struct {
	name     string // pkg.Struct.Field
	strct    string // pkg.Struct
	declared token.Position
	writers  map[string]bool // non-test write positions
	tests    map[string]bool // test files that write it
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

// isConfigName reports whether a struct type of this name is held to the
// rule.
func isConfigName(name string) bool {
	return strings.HasSuffix(name, "Config") || name == "Options"
}

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

// structName renders a (pointer to a) named type as pkg.Name, the form
// field.strct has.
func structName(t types.Type) string {
	if n, ok := deref(t).(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Name() + "." + n.Obj().Name()
	}
	return ""
}
