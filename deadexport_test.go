package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptExports are exported identifiers in internal/ that no program
// reaches but that stay on purpose, keyed package.Name or
// package.Type.Method.
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

// exportDecl is one top-level declaration and the names it mentions.
type exportDecl struct {
	key      string // package.Name or package.Type.Method
	name     string // the bare name a reference uses
	pos      string
	internal bool
	refs     []string
}

// TestNoDeadExports fails on any exported identifier in internal/ that no
// program under cmd/, examples/ or bench/ reaches, directly or through
// other declarations of those trees' non-test files. A reference is
// matched by bare name, whatever package or type it selects from, so the
// check errs on the side of calling a declaration reachable.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	var decls []*exportDecl
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, d := range f.Decls {
				decls = append(decls, declsOf(fset, f.Name.Name, root == "internal", d)...)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	byName := map[string][]*exportDecl{}
	for _, d := range decls {
		byName[d.name] = append(byName[d.name], d)
	}
	reached := map[*exportDecl]bool{}
	var queue []*exportDecl
	reach := func(d *exportDecl) {
		if !reached[d] {
			reached[d] = true
			queue = append(queue, d)
		}
	}
	for _, d := range decls {
		_, kept := keptExports[d.key]
		if !d.internal || kept || d.name == "_" || d.name == "init" || interfaceMethods[d.name] {
			reach(d)
		}
	}
	for len(queue) > 0 {
		d := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ref := range d.refs {
			for _, e := range byName[ref] {
				reach(e)
			}
		}
	}

	var dead []string
	for _, d := range decls {
		if d.internal && !reached[d] && ast.IsExported(d.name) {
			dead = append(dead, d.key+" ("+d.pos+")")
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported identifiers in internal/ that no program reaches; delete them or list them in keptExports:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// declsOf splits one top-level declaration into its named parts.
func declsOf(fset *token.FileSet, pkg string, internal bool, d ast.Decl) []*exportDecl {
	mk := func(key, name string, node ast.Node) *exportDecl {
		var refs []string
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				refs = append(refs, id.Name)
			}
			return true
		})
		p := fset.Position(node.Pos())
		return &exportDecl{key: key, name: name, pos: filepath.ToSlash(p.Filename) + ":" + strconv.Itoa(p.Line), internal: internal, refs: refs}
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		key := pkg + "." + d.Name.Name
		if d.Recv != nil && len(d.Recv.List) == 1 {
			key = pkg + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
		}
		return []*exportDecl{mk(key, d.Name.Name, d)}
	case *ast.GenDecl:
		var out []*exportDecl
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				out = append(out, mk(pkg+"."+s.Name.Name, s.Name.Name, s))
			case *ast.ValueSpec:
				for _, n := range s.Names {
					out = append(out, mk(pkg+"."+n.Name, n.Name, s))
				}
			}
		}
		return out
	}
	return nil
}

// recvName is the type name of a method receiver: T for T, *T, T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
