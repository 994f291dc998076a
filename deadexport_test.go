package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptExports are declarations in internal/ that no program reaches but
// that stay on purpose, keyed package.Name or package.Type.Method.
var keptExports = map[string]string{
	"mva.ExactSingleChain":            "single-chain reference solver the mva and convolution tests compare against",
	"mva.SingleChainLD":               "load-dependent reference solver the mva tests compare against",
	"mva.AsymptoticBounds":            "bounds the solver tests check every solver's answer against",
	"qnet.Network.WithPopulations":    "builds the population variants the solver tests compare",
	"netmodel.Network.BottleneckRate": "the Fig. 4.5 bottleneck checks",
	"power.Kleinrock.PowerForWindow":  "the closed-form power of eq. 4.21 that the experiments tests check",
	"power.Kleinrock.OptimalWindow":   "the eq. 4.21 optimum E = hops that the experiments tests check",
	"convolution.Engine.Hmax":         "test seam: the lattice box an engine holds",
	"pattern.Checkpoint.Save":         "test seam: writes a snapshot the resume tests then tamper with",
	"transport.Fake.Launches":         "test seam: counts launches per simulated host",
}

// interfaceMethods are method names that the standard library calls
// through an interface, so no program names them.
var interfaceMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "ServeHTTP": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// decl is one top-level declaration (a method counts as its own) and the
// objects its body uses.
type decl struct {
	key      string // package.Name or package.Type.Method
	obj      types.Object
	recv     *types.Named // a method's receiver type
	pos      string
	internal bool
	uses     []types.Object
}

// TestNoDeadExports fails on any declaration in internal/, exported or
// not, that no program under cmd/, examples/ or bench/ reaches, directly
// or through other declarations of non-test files (the root facade's
// included). Uses are resolved by go/types, so a name reaches only the
// declaration it denotes. Using an interface type or one of its methods
// reaches that interface's methods on every type implementing it.
func TestNoDeadExports(t *testing.T) {
	prog := loadProgram(t)
	var decls []*decl
	byObj := map[types.Object]*decl{}
	for _, p := range prog.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				for _, dc := range declsOf(prog.fset, p, d) {
					decls = append(decls, dc)
					byObj[dc.obj] = dc
				}
			}
		}
	}

	reached := map[*decl]bool{}
	var queue []*decl
	reach := func(d *decl) {
		if d != nil && !reached[d] {
			reached[d] = true
			queue = append(queue, d)
		}
	}
	for _, d := range decls {
		_, kept := keptExports[d.key]
		name := d.obj.Name()
		if !d.internal || kept || name == "_" || name == "init" || (d.recv != nil && interfaceMethods[name]) {
			reach(d)
		}
	}
	seenIface := map[*types.Interface]bool{}
	for len(queue) > 0 {
		d := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, obj := range d.uses {
			reach(byObj[obj])
			iface := interfaceOf(obj)
			if iface == nil || seenIface[iface] {
				continue
			}
			seenIface[iface] = true
			for _, m := range decls {
				if m.recv == nil || !implements(m.recv, iface) {
					continue
				}
				for i := range iface.NumMethods() {
					if iface.Method(i).Name() == m.obj.Name() {
						reach(m)
					}
				}
			}
		}
	}

	var dead []string
	for _, d := range decls {
		if d.internal && !reached[d] {
			dead = append(dead, d.key+" ("+d.pos+")")
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d declarations in internal/ that no program reaches; delete them, move them into the tests that use them, or list them in keptExports:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// interfaceOf returns the interface type obj names or is a method of,
// or nil.
func interfaceOf(obj types.Object) *types.Interface {
	var t types.Type
	switch o := obj.(type) {
	case *types.TypeName:
		t = o.Type()
	case *types.Func:
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			return nil
		}
		t = recv.Type()
	default:
		return nil
	}
	iface, _ := t.Underlying().(*types.Interface)
	return iface
}

// implements reports whether T or *T implements iface.
func implements(t *types.Named, iface *types.Interface) bool {
	if _, ok := t.Underlying().(*types.Interface); ok {
		return false
	}
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

// declsOf splits one top-level declaration into its named parts.
func declsOf(fset *token.FileSet, p *srcPkg, d ast.Decl) []*decl {
	mk := func(name *ast.Ident, node ast.Node) *decl {
		obj := p.info.Defs[name]
		key := p.types.Name() + "." + name.Name
		var recv *types.Named
		if fn, ok := obj.(*types.Func); ok {
			if r := fn.Type().(*types.Signature).Recv(); r != nil {
				t := r.Type()
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				recv, _ = t.(*types.Named)
				key = p.types.Name() + "." + recv.Obj().Name() + "." + name.Name
			}
		}
		var uses []types.Object
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := p.info.Uses[n]; obj != nil {
					uses = append(uses, origin(obj))
				}
			case *ast.SelectorExpr:
				if sel := p.info.Selections[n]; sel != nil {
					uses = append(uses, origin(sel.Obj()))
				}
			}
			return true
		})
		pos := fset.Position(node.Pos())
		return &decl{key: key, obj: obj, recv: recv, internal: p.internal, uses: uses,
			pos: filepath.ToSlash(pos.Filename) + ":" + strconv.Itoa(pos.Line)}
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		return []*decl{mk(d.Name, d)}
	case *ast.GenDecl:
		var out []*decl
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				out = append(out, mk(s.Name, s))
			case *ast.ValueSpec:
				for _, n := range s.Names {
					out = append(out, mk(n, s))
				}
			}
		}
		return out
	}
	return nil
}

// origin maps a use of a generic function, method or type's instance to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// srcPkg is one type-checked package of the repository.
type srcPkg struct {
	files    []*ast.File
	types    *types.Package
	info     *types.Info
	internal bool
}

// program type-checks the repository's packages from source: the root
// facade, internal/, cmd/, examples/ and the bench module. Standard
// library imports come from the default importer.
type program struct {
	fset *token.FileSet
	dirs map[string]string // import path -> directory
	pkgs map[string]*srcPkg
	std  types.Importer
}

func loadProgram(t *testing.T) *program {
	t.Helper()
	prog := &program{fset: token.NewFileSet(), dirs: map[string]string{"repro": "."},
		pkgs: map[string]*srcPkg{}, std: importer.Default()}
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				prog.dirs["repro/"+filepath.ToSlash(path)] = path
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for path := range prog.dirs {
		if _, err := prog.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	for path, p := range prog.pkgs {
		if p == nil {
			delete(prog.pkgs, path) // a directory without Go files
		}
	}
	return prog
}

// Import implements types.Importer over the repository's sources.
func (prog *program) Import(path string) (*types.Package, error) {
	dir, ok := prog.dirs[path]
	if !ok {
		return prog.std.Import(path)
	}
	if p, done := prog.pkgs[path]; done {
		if p == nil {
			return nil, nil
		}
		return p.types, nil
	}
	prog.pkgs[path] = nil
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &srcPkg{internal: strings.HasPrefix(path, "repro/internal/"), info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(prog.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		return nil, nil
	}
	conf := types.Config{Importer: prog}
	if p.types, err = conf.Check(path, prog.fset, p.files, p.info); err != nil {
		return nil, err
	}
	prog.pkgs[path] = p
	return p.types, nil
}
