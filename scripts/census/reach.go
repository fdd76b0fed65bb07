package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// kept is one function no binary reaches that stays for a test: observe
// returns state, or reads back an artifact reachable code wrote, with no
// logic beyond decoding; fixture puts reachable code on a path no binary's
// input takes it down; oracle is a reference implementation a test
// compares reachable code against.
type kept struct {
	kind string // observe, fixture or oracle
	test string // a test file that needs it
	why  string
}

// reachKeep lists the functions only tests reach, on purpose. An entry
// that a binary reaches, or that its test file no longer names, is
// reported as stale.
var reachKeep = map[string]kept{
	"addrman.AddrMan.Counts":    {"observe", "addrman_test.go", "table sizes after Add and Good"},
	"addrman.AddrMan.Have":      {"observe", "addrman_test.go", "whether an address is held; node and simnet tests ask it too"},
	"addrman.AddrMan.InTried":   {"observe", "addrman_test.go", "whether a handshake promoted an address; node, simnet, faults and tcpnet tests ask it too"},
	"chain.Chain.BlockByHeight": {"observe", "ibd_test.go", "the donor's block at a height, to serve it to the node under test"},
	"node.Node.Mempool":         {"observe", "node_test.go", "whether a relayed transaction was pooled"},
	"node.Node.Stopped":         {"observe", "simnet_test.go", "whether Host.Stop stopped the session's node"},
	"obs.ReadFlightRecord":      {"observe", "flightrec_test.go", "decodes the file FlightRecorder.Dump wrote"},
	"obs.ReadSeriesCSV":         {"observe", "series_test.go", "decodes the sidecar SeriesSet.WriteCSV wrote; FuzzSeriesCSVRoundTrip"},
	"obs.SeriesSet.EncodeCSV":   {"observe", "determinism_test.go", "WriteCSV into a string, to compare two runs' series"},
	"simnet.Scheduler.Pending":  {"observe", "events_test.go", "queue depth"},

	"simnet.Scheduler.Drain":          {"fixture", "bench_test.go", "pops exactly b.N events whatever their times, for BenchmarkSchedulerDepth"},
	"simnet.ConstantLatency":          {"fixture", "simnet_more_test.go", "equal delays pin delivery and link-close order"},
	"simnet.Network.AddBlackholeStub": {"fixture", "injector_test.go", "a peer that accepts and never speaks: the node's handshake timeout"},
	"faults.Injector.Blackhole":       {"fixture", "chaos_test.go", "silences a live miner: keepalive and stall eviction end to end"},
	"faults.Injector.Restore":         {"fixture", "chaos_test.go", "lifts Blackhole so the network reconverges"},
}

// function is one function or method declared in a non-test file.
type function struct {
	name     string // pkg.Func or pkg.Type.Method, pkg the last path element
	declared token.Position
	root     bool            // a main, an init, or a method some interface can call
	callees  map[string]bool // declaration keys of the module functions its body names
	tests    map[string]bool // test files that name it
}

// declareFuncs records the functions and methods the unit declares in
// non-test files.
func (c *checker) declareFuncs(u *unit) {
	for _, file := range u.files {
		if isTestFile(c.fset.Position(file.Pos()).Filename) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "_" {
				continue
			}
			obj := u.info.Defs[fd.Name]
			if c.funcs[c.key(obj)] != nil {
				continue
			}
			name := fd.Name.Name
			isMain := name == "main" && u.pkg.Name() == "main"
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				if tv, ok := u.info.Types[fd.Recv.List[0].Type]; ok {
					if n, ok := deref(tv.Type).(*types.Named); ok {
						name = n.Obj().Name() + "." + name
					}
				}
			}
			c.funcs[c.key(obj)] = &function{
				name:     path.Base(u.pkg.Path()) + "." + name,
				declared: c.fset.Position(fd.Name.Pos()),
				root:     fd.Recv == nil && (isMain || name == "init"),
				callees:  map[string]bool{},
				tests:    map[string]bool{},
			}
		}
	}
}

// references records which module functions every declaration of the unit
// names: a call, a method value and a function value all count. A name in
// a package-level initialiser makes its function a root, since the
// initialiser runs in every binary that links the package; a name in a
// test file is noted as that function's test caller and nothing more.
func (c *checker) references(u *unit) {
	for _, file := range u.files {
		name := c.fset.Position(file.Pos()).Filename
		for _, decl := range file.Decls {
			var from *function
			if fd, ok := decl.(*ast.FuncDecl); ok {
				from = c.funcs[c.key(u.info.Defs[fd.Name])]
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := u.info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				key := c.key(fn.Origin())
				to := c.funcs[key]
				switch {
				case to == nil:
				case isTestFile(name):
					to.tests[filepath.Base(name)] = true
				case from != nil:
					from.callees[key] = true
				default:
					to.root = true
				}
				return true
			})
		}
	}
}

// satisfies marks as roots the methods an interface call can dispatch to:
// for every interface the unit can see (its own, named or written in
// place, and those of every package it imports, the standard library
// included) and every named type of the module it can see, the methods of
// the interface on the type, if the type's method set implements it. A
// conversion to an interface happens in a package that sees both sides,
// so running this over every non-test unit finds every pair that can meet.
func (c *checker) satisfies(u *unit) {
	var pkgs []*types.Package
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		pkgs = append(pkgs, p)
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	visit(u.pkg)

	ifaces := append([]*types.Interface{}, c.asserted...)
	var impls []types.Type
	for _, p := range pkgs {
		ours := p == u.pkg || strings.HasPrefix(p.Path(), c.module+"/")
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				if it.NumMethods() > 0 && named.TypeParams().Len() == 0 {
					ifaces = append(ifaces, it)
				}
			} else if ours {
				impls = append(impls, types.NewPointer(instantiated(named)))
			}
		}
	}
	for expr, tv := range u.info.Types {
		if _, ok := expr.(*ast.InterfaceType); ok {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}

	for _, t := range impls {
		for _, it := range ifaces {
			if !types.Implements(t, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok {
					if f := c.funcs[c.key(fn.Origin())]; f != nil {
						f.root = true
					}
				}
			}
		}
	}
}

// assertedSrc declares the interfaces that have no name in any export
// data: the predeclared error, and those package errors asserts a value to
// in place (Is, As and Unwrap walk a chain through them).
const assertedSrc = `package asserted

type (
	_ interface{ error }
	_ interface{ Unwrap() error }
	_ interface{ Unwrap() []error }
	_ interface{ Is(error) bool }
	_ interface{ As(any) bool }
)`

func assertedInterfaces(fset *token.FileSet) []*types.Interface {
	file, err := parser.ParseFile(fset, "asserted.go", assertedSrc, parser.SkipObjectResolution)
	if err != nil {
		panic(err)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	if _, err := new(types.Config).Check("asserted", fset, []*ast.File{file}, info); err != nil {
		panic(err)
	}
	var out []*types.Interface
	for expr, tv := range info.Types {
		if _, ok := expr.(*ast.InterfaceType); ok {
			out = append(out, tv.Type.(*types.Interface))
		}
	}
	return out
}

// instantiated returns a generic type applied to its own type parameters,
// the form its methods' receivers have, and any other type as it is:
// types.Implements is not defined on an uninstantiated generic type.
func instantiated(named *types.Named) types.Type {
	params := named.TypeParams()
	if params.Len() == 0 {
		return named
	}
	args := make([]types.Type, params.Len())
	for i := range args {
		args[i] = params.At(i)
	}
	inst, err := types.Instantiate(nil, named, args, false)
	if err != nil {
		return named
	}
	return inst
}

// reached returns the declaration keys of the functions reachable from the
// roots and from the extra names given.
func reached(funcs map[string]*function, extra map[string]kept) map[string]bool {
	in := map[string]bool{}
	var stack []string
	for key, f := range funcs {
		if _, ok := extra[f.name]; f.root || ok {
			in[key] = true
			stack = append(stack, key)
		}
	}
	for len(stack) > 0 {
		key := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for callee := range funcs[key].callees {
			if !in[callee] {
				in[callee] = true
				stack = append(stack, callee)
			}
		}
	}
	return in
}

// reportReach prints the counts and every violation of the reach rule, and
// returns whether the module holds it: a function no binary reaches is
// deleted unless keep lists it, and keep lists nothing else. A function
// only a kept one calls stays with it.
func reportReach(w io.Writer, funcs map[string]*function, keep map[string]kept) bool {
	byBinary := reached(funcs, nil)
	withKept := reached(funcs, keep)
	keys := sortedKeys(funcs)
	sort.SliceStable(keys, func(i, j int) bool { return funcs[keys[i]].name < funcs[keys[j]].name })

	kinds := map[string]int{}
	for _, k := range keep {
		kinds[k.kind]++
	}
	fmt.Fprintf(w, "%-32s %d declared, %d reached by a binary, %d kept for tests (%d observe, %d fixture, %d oracle)\n",
		"functions", len(funcs), len(byBinary), len(keep), kinds["observe"], kinds["fixture"], kinds["oracle"])

	clean := true
	seen := map[string]bool{}
	for _, key := range keys {
		f := funcs[key]
		k, listed := keep[f.name]
		seen[f.name] = true
		switch {
		case listed && k.kind != "observe" && k.kind != "fixture" && k.kind != "oracle":
			clean = false
			fmt.Fprintf(w, "%s: keep entry %s has kind %q: want observe, fixture or oracle\n", f.declared, f.name, k.kind)
		case listed && byBinary[key]:
			clean = false
			fmt.Fprintf(w, "%s: stale keep entry: a binary reaches %s; drop it from reachKeep\n", f.declared, f.name)
		case listed && !f.tests[k.test]:
			clean = false
			fmt.Fprintf(w, "%s: stale keep entry: %s does not name %s; drop it from reachKeep or delete the function\n",
				f.declared, k.test, f.name)
		case !listed && !withKept[key]:
			clean = false
			who := "no code at all"
			if len(f.tests) > 0 {
				who = "only " + strings.Join(sortedKeys(f.tests), ", ")
			}
			fmt.Fprintf(w, "%s: %s is reached by no binary (%s): delete it with what exists only for it\n", f.declared, f.name, who)
		}
	}
	for _, name := range sortedKeys(keep) {
		if !seen[name] {
			clean = false
			fmt.Fprintf(w, "stale keep entry: %s does not exist; drop it from reachKeep\n", name)
		}
	}
	return clean
}
