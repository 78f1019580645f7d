package conformance

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
	"regexp"
	"sort"
	"strings"
	"testing"
)

// reachKept is the allowlist of TestReachability: every package-level
// declaration in a non-test file that no program reaches, with the reason it
// stays. A key is a declaration ("pkg.Name", "pkg.Type.Method") or a whole
// package path. The test fails on an unreachable declaration with no row, on
// a row that matches nothing unreachable (deleted, renamed, or reached by a
// program again) and on a row no test reaches either — that one is dead
// code, not a reference.
var reachKept = map[string]string{
	"repro/internal/eblctest": "test-support package: the per-codec contract the sz2, sz3, szx, zfp and pipeline tests run",
	"repro/internal/promtext": "test-support package: the Prometheus text parser the telemetry, core, flserve and fedsz-serve tests read scrapes with",

	"repro.Kind":           "the partitioner's public enum: a caller names it to hold an entry kind; TestPublicAPIRoundTrip checks every entry keeps its Kind",
	"repro.KindScalarMeta": "the partitioner's fourth public kind (PyTorch's num_batches_tracked counters); TestCodecConcurrentSharedPools sends one",

	"repro/internal/ebcl.MaxAbsError":    "the error measure eblctest and the codec tests hold every bound to",
	"repro/internal/ebcl.Precision":      "PREC-mode shorthand beside Rel and Abs; zfp, core and conformance tests build fixed-precision params with it",
	"repro/internal/lanes.BothPaths":     "the one both-paths helper: the kernel tests in ebcl, core, agg and huffman, the goldens and the root delta fuzz seeds run their checks on the kernels and the Go loops through it",
	"repro/internal/sched.FloatPoolPuts": "the puts side of the gets == puts leak assertions in core, wire and agg tests",
}

// fieldsKept is the allowlist of the field pass: every field
// ("pkg.Type.Field") of a struct declared in a non-test file under internal/
// or cmd/ that no non-test file writes (exported fields only) or that no
// non-test file reads, with the reason it stays. An unwritten field holds its
// zero value in every program, so the code it gates is reached by a call and
// still never runs; an unread field is storage and bookkeeping no program
// looks at. The test fails on such a field with no row, on a row that matches
// none (deleted, renamed, or written and read by a program again) and on an
// unwritten field's row no test writes either.
var fieldsKept = map[string]string{
	"repro/internal/fl.Transport.Delta": "the in-memory delta rounds TestFedSZTransportDeltaRounds holds the delta_reduction floor on",

	"repro/internal/core.Options.ChunkElems":             "the test seam for small chunks: the v4 goldens and the core chunk, delta and sample tests chunk a few thousand elements with it; programs chunk at core.DefaultChunkElems",
	"repro/internal/core.Stats.ConstantResiduals":        `public as fedsz.Stats; README "Cross-round delta mode" documents it; the core delta and golden tests read it`,
	"repro/internal/core.DecompressStats.DeltaTensors":   `public as fedsz.DecompressStats; README "Cross-round delta mode" documents it; the core, conformance and fuzz tests hold it equal to the encoder's count`,
	"repro/internal/core.DecompressStats.ChunkedTensors": `public as fedsz.DecompressStats; README "Chunked sections (format v4)" documents it; the core chunk and delta tests hold it equal to the encoder's count`,
	"repro/internal/fl.RoundResult.DeltaTensors":         "TestFedSZTransportDeltaRounds reads it (residuals were sent) and TestRoundConformance (a sharded round counts them as a flat one does)",
	"repro/internal/fl.RoundResult.DeltaBytesSaved":      "TestFedSZTransportDeltaRounds reads it: the last delta round saved bytes",
	"repro/internal/flserve.Config.Parallel":             "deprecated and ignored; bench/ still sets it, and the next change to bench/ deletes those two writes and the field",
	"repro/internal/agg.Config.Shards":                   "deprecated and ignored since the fold became one loop; bench/ still sets it, and the next change to bench/ deletes those two writes and the field",
}

// Two packages' declarations count as reached without a caller: everything
// in bench/, and the root package's exports README.md names in its code — the
// public API a caller uses even when no program here does.
const (
	modulePath = "repro"
	benchPath  = "repro/bench"
)

type listedPkg struct {
	ImportPath string
	Dir        string
	Name       string
	Standard   bool
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
}

// decl is one package-level declaration of the module.
type decl struct {
	pkg    string
	pos    token.Position
	lines  int
	inTest bool
	iface  string // for a method of a named interface, the interface's key
	uses   map[string]bool
}

// audit is the module type-checked from source — every package and every
// test variant `go list -test` reports — reduced to a use graph over
// declaration keys. Keys, not objects, identify a declaration, so a package
// and its test variant (checked twice, two object sets) fold into one node.
type audit struct {
	root  string // the module directory, with a trailing separator
	fset  *token.FileSet
	decls map[string]*decl
	// progRoots and testRoots are the keys used by code that runs without
	// being called: main, init, blank initialisers, the public API, bench/;
	// and Test*, Benchmark*, Fuzz*, Example* and test-file inits.
	progRoots, testRoots map[string]bool
	// types maps a non-test named type's key to its object, and ifaces
	// holds every interface a non-test file or the standard library
	// declares: a reached type's methods that satisfy one are reached.
	types  map[string]*types.TypeName
	ifaces []*types.Interface
	// fields names every audited struct field by the position of its
	// declaration — like a key, the same for a package and its test variants
	// — and written and read hold the positions of the fields some file
	// writes and reads.
	fields        map[token.Position]field
	written, read map[token.Position]users
	// readme holds every identifier in README.md's code blocks and spans:
	// the root package's exports it names are public API a program need not
	// reach.
	readme map[string]bool
}

// field is one audited struct field.
type field struct {
	name     string
	exported bool
}

// users says which kind of file writes or reads a field.
type users struct{ program, test bool }

func goList(t *testing.T, args ...string) []listedPkg {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = filepath.Join("..", "..")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %v: %v\n%s", args, err, stderr.Bytes())
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatalf("go list %v: %v", args, err)
		}
		pkgs = append(pkgs, p)
	}
}

func loadAudit(t *testing.T) *audit {
	t.Helper()
	// Dependency order, test variants included; no -export here, so no
	// module code is built.
	listed := goList(t, "-test", "-deps", "-json=ImportPath,Dir,Name,Standard,GoFiles,ImportMap", "./...")
	var std []string
	for _, p := range listed {
		if p.Standard {
			std = append(std, p.ImportPath)
		}
	}
	exports := map[string]string{}
	for _, p := range goList(t, append([]string{"-export", "-json=ImportPath,Export"}, std...)...) {
		exports[p.ImportPath] = p.Export
	}

	a := &audit{
		fset:      token.NewFileSet(),
		decls:     map[string]*decl{},
		progRoots: map[string]bool{},
		testRoots: map[string]bool{},
		types:     map[string]*types.TypeName{},
		fields:    map[token.Position]field{},
		written:   map[token.Position]users{},
		read:      map[token.Position]users{},
		readme:    readmeIdents(t),
	}
	stdImporter := importer.ForCompiler(a.fset, "gc", func(path string) (io.ReadCloser, error) {
		file := exports[path]
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	checked := map[string]*types.Package{} // by listed ImportPath, variants included
	stdSeen := map[string]*types.Package{}
	for _, p := range listed {
		if p.Standard || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.ImportPath == modulePath {
			a.root = p.Dir + string(filepath.Separator)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(a.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if mapped := p.ImportMap[path]; mapped != "" {
				path = mapped
			}
			if pkg := checked[path]; pkg != nil {
				return pkg, nil
			}
			pkg, err := stdImporter.Import(path)
			if err == nil {
				stdSeen[path] = pkg
			}
			return pkg, err
		})}
		path, _, _ := strings.Cut(p.ImportPath, " ")
		pkg, err := conf.Check(path, a.fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		a.addPackage(p, files, info)
		a.addAsmReads(t, p, pkg)
	}
	a.ifaces = append(a.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	// The interface literals errors.Is, errors.As and net's timeout checks
	// assert to; export data does not list them.
	const stdLiterals = `package p
var (
	_ interface{ Unwrap() error }
	_ interface{ Unwrap() []error }
	_ interface{ Is(error) bool }
	_ interface{ As(any) bool }
	_ interface{ Timeout() bool }
)`
	f, err := parser.ParseFile(a.fset, "std_literals.go", stdLiterals, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	if _, err := new(types.Config).Check("p", a.fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	a.addInterfaces(info)
	for _, pkg := range stdSeen {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
					a.ifaces = append(a.ifaces, iface)
				}
			}
		}
	}
	return a
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// keyOf names a package-level object or a method of a named type of the
// module (a named interface's methods included); fields, locals, methods of
// interface literals and everything outside the module give "".
func keyOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			named, ok := rt.(*types.Named)
			if !ok {
				return ""
			}
			return path + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return path + "." + obj.Name()
}

// usesOf collects the keys every identifier under n resolves to.
func usesOf(n ast.Node, info *types.Info, into map[string]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if key := keyOf(info.Uses[id]); key != "" {
				into[key] = true
			}
		}
		return true
	})
}

func isTestEntry(name string) bool {
	for _, prefix := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func (a *audit) addPackage(p listedPkg, files []*ast.File, info *types.Info) {
	// Only a package as programs build it feeds types and ifaces: its test
	// variants are separate object sets that never satisfy one another.
	base := !strings.Contains(p.ImportPath, " ")
	if base {
		a.addInterfaces(info)
	}
	targets := map[*ast.Ident]bool{} // see addFieldWrites
	for _, file := range files {
		inTest := strings.HasSuffix(a.fset.File(file.Pos()).Name(), "_test.go")
		roots := a.progRoots
		if inTest {
			roots = a.testRoots
		}
		a.addFieldWrites(file, info, inTest, targets)
		// node registers one declaration spanning [from, to] and returns
		// the set its uses go to; a declaration that runs uncalled gets the
		// root set instead.
		node := func(id *ast.Ident, from, to ast.Node, doc *ast.CommentGroup, isRoot bool) map[string]bool {
			obj := info.Defs[id]
			key := keyOf(obj)
			if isRoot || key == "" {
				return roots
			}
			public := !inTest && p.ImportPath == modulePath && id.IsExported()
			if !inTest && (p.ImportPath == benchPath || (public && a.readme[id.Name])) {
				roots[key] = true
			}
			tn, isType := obj.(*types.TypeName)
			if isType && base && !tn.IsAlias() {
				a.types[key] = tn
			}
			d := a.decls[key]
			if d == nil {
				start := from.Pos()
				if doc != nil {
					start = doc.Pos()
				}
				pos := a.fset.Position(start)
				d = &decl{pkg: obj.Pkg().Path(), pos: pos, lines: a.fset.Position(to.End()).Line - pos.Line + 1, inTest: inTest, uses: map[string]bool{}}
				a.decls[key] = d
			}
			// An interface the public API names is public method by method:
			// a caller's codec must implement every one.
			if iface, ok := obj.Type().Underlying().(*types.Interface); ok && isType && public {
				for i := 0; i < iface.NumMethods(); i++ {
					d.uses[keyOf(iface.Method(i))] = true
				}
			}
			return d.uses
		}
		for _, top := range file.Decls {
			switch top := top.(type) {
			case *ast.FuncDecl:
				name := top.Name.Name
				isRoot := top.Recv == nil && (name == "init" || name == "_" ||
					(name == "main" && p.Name == "main") ||
					(inTest && isTestEntry(name)))
				usesOf(top, info, node(top.Name, top, top, top.Doc, isRoot))
			case *ast.GenDecl:
				for _, spec := range top.Specs {
					doc := top.Doc
					var from ast.Node = top
					if top.Lparen.IsValid() {
						from = spec
					}
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if top.Lparen.IsValid() {
							doc = spec.Doc
						}
						usesOf(spec, info, node(spec.Name, from, spec, doc, false))
						if st, ok := spec.Type.(*ast.StructType); ok && !inTest && audited(info.Defs[spec.Name].Pkg().Path()) {
							for _, f := range st.Fields.List {
								for _, id := range f.Names {
									a.fields[a.fset.Position(id.Pos())] = field{keyOf(info.Defs[spec.Name]) + "." + id.Name, id.IsExported()}
								}
							}
						}
						if it, ok := spec.Type.(*ast.InterfaceType); ok {
							iface := keyOf(info.Defs[spec.Name])
							for _, m := range it.Methods.List {
								for _, id := range m.Names {
									node(id, m, m, m.Doc, false)
									a.decls[keyOf(info.Defs[id])].iface = iface
								}
							}
						}
					case *ast.ValueSpec:
						if top.Lparen.IsValid() {
							doc = spec.Doc
						}
						for _, id := range spec.Names {
							usesOf(spec, info, node(id, from, spec, doc, id.Name == "_"))
						}
					}
				}
			}
		}
	}
	for id, obj := range info.Uses {
		if !targets[id] {
			a.use(a.read, obj, strings.HasSuffix(a.fset.File(id.Pos()).Name(), "_test.go"))
		}
	}
}

// use records that a file (a test file when inTest) writes or reads obj, if
// obj is a struct field.
func (a *audit) use(into map[token.Position]users, obj types.Object, inTest bool) {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		pos := a.fset.Position(v.Origin().Pos())
		u := into[pos]
		u.program = u.program || !inTest
		u.test = u.test || inTest
		into[pos] = u
	}
}

// audited reports whether the field pass covers structs declared in the
// package: the root package's are public API, bench/ is a root, and a package
// reachKept keeps whole is test support, whose fields tests set.
func audited(pkgPath string) bool {
	if _, kept := reachKept[pkgPath]; kept {
		return false
	}
	return strings.HasPrefix(pkgPath, modulePath+"/internal/") || strings.HasPrefix(pkgPath, modulePath+"/cmd/")
}

// addFieldWrites records the struct fields file writes: the fields a
// composite literal sets (all of them when it is positional), and every
// field selected on the way to an assigned, incremented or address-taken
// operand — x.f = v, x.f.g++, &x.f[i] all write f. It adds to targets the
// identifiers that only write: a composite-literal key and the outermost
// field of an assigned or incremented operand. Every other use of a field
// reads it — the inner fields of an assigned path (x.f.g = v reads f) and an
// address-taken one included.
func (a *audit) addFieldWrites(file *ast.File, info *types.Info, inTest bool, targets map[*ast.Ident]bool) {
	mark := func(obj types.Object) { a.use(a.written, obj, inTest) }
	markPath := func(e ast.Expr, target bool) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				mark(info.Uses[x.Sel])
				if target {
					targets[x.Sel] = true
					target = false
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			typ := info.Types[n].Type
			if ptr, ok := typ.Underlying().(*types.Pointer); ok { // an elided &T in a []*T literal
				typ = ptr.Elem()
			}
			st, ok := typ.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					key := kv.Key.(*ast.Ident)
					mark(info.Uses[key])
					targets[key] = true
				} else {
					mark(st.Field(i))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markPath(lhs, true)
			}
		case *ast.IncDecStmt:
			markPath(n.X, true)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				markPath(n.X, false)
			}
		}
		return true
	})
}

// addAsmReads records the struct fields p's assembly reads: a Type_field
// offset go_asm.h defines for a .s file. Every .s file in the directory
// counts, whatever GOARCH the audit runs under, so the verdict is the same on
// every platform.
func (a *audit) addAsmReads(t *testing.T, p listedPkg, pkg *types.Package) {
	sfiles, err := filepath.Glob(filepath.Join(p.Dir, "*.s"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sfiles {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range asmOffset.FindAllStringSubmatch(string(src), -1) {
			tn, ok := pkg.Scope().Lookup(m[1]).(*types.TypeName)
			if !ok {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Name() == m[2] {
						a.use(a.read, f, false)
					}
				}
			}
		}
	}
}

var asmOffset = regexp.MustCompile(`\b([A-Za-z]\w*?)_(\w+)\b`)

// readmeIdents returns every identifier in README.md's fenced code blocks
// and inline code spans.
func readmeIdents(t *testing.T) map[string]bool {
	src, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	idents := map[string]bool{}
	for i, block := range strings.Split(string(src), "```") {
		if i%2 == 0 { // prose: only its inline spans are code
			spans := strings.Split(block, "`")
			for j := 1; j < len(spans); j += 2 {
				for _, id := range identRE.FindAllString(spans[j], -1) {
					idents[id] = true
				}
			}
			continue
		}
		for _, id := range identRE.FindAllString(block, -1) {
			idents[id] = true
		}
	}
	return idents
}

var identRE = regexp.MustCompile(`[A-Za-z_]\w*`)

// addInterfaces records every interface literal in info, the right-hand
// sides of named interface declarations included.
func (a *audit) addInterfaces(info *types.Info) {
	for expr, tv := range info.Types {
		if _, lit := expr.(*ast.InterfaceType); lit {
			if iface, ok := tv.Type.(*types.Interface); ok && iface.NumMethods() > 0 {
				a.ifaces = append(a.ifaces, iface)
			}
		}
	}
}

// reach returns every key reachable from roots: by use, and — for a reached
// type — by satisfying an interface with the method. A method of one of the
// module's named interfaces counts only once something reached calls it, so
// an interface method nobody calls keeps no implementation alive; standard
// library interfaces and interface literals always count.
func (a *audit) reach(roots ...map[string]bool) map[string]bool {
	live := map[string]bool{}
	var work []string
	mark := func(key string) {
		if key != "" && !live[key] {
			live[key] = true
			work = append(work, key)
		}
	}
	for _, set := range roots {
		for key := range set {
			mark(key)
		}
	}
	type satisfied struct {
		by    *types.MethodSet
		iface *types.Interface
	}
	var pairs []satisfied // reached type × interface it implements
	for {
		for len(work) > 0 {
			key := work[len(work)-1]
			work = work[:len(work)-1]
			if d := a.decls[key]; d != nil {
				for use := range d.uses {
					mark(use)
				}
			}
			tn := a.types[key]
			if tn == nil {
				continue
			}
			typ := tn.Type()
			if !types.IsInterface(typ) {
				typ = types.NewPointer(typ)
			}
			mset := types.NewMethodSet(typ)
			if mset.Len() == 0 {
				continue
			}
			for _, iface := range a.ifaces {
				if iface != typ.Underlying() && types.Implements(typ, iface) {
					pairs = append(pairs, satisfied{mset, iface})
				}
			}
		}
		for _, p := range pairs {
			for i := 0; i < p.iface.NumMethods(); i++ {
				m := p.iface.Method(i)
				if called := keyOf(m); called == "" || live[called] {
					mark(keyOf(p.by.Lookup(m.Pkg(), m.Name()).Obj()))
				}
			}
		}
		if len(work) == 0 {
			return live
		}
	}
}

// TestReachability is the reachability audit as a test: a package-level
// declaration in a non-test file is reached from a program (the cmd/ and
// examples/ mains, bench/, the root package's exports README.md names) or it
// is in reachKept with a reason and a test reaches it; an exported struct
// field under internal/ or cmd/ is written by a non-test file or it is in
// fieldsKept with a reason and a test writes it; and any struct field there is
// read by a non-test file (its assembly included) or it is in fieldsKept with
// a reason. It type-checks the module from source against the standard
// library's export data, which takes about a second.
func TestReachability(t *testing.T) {
	a := loadAudit(t)
	byPrograms := a.reach(a.progRoots)
	byTests := a.reach(a.progRoots, a.testRoots)

	matched := map[string]bool{}
	var report []string
	count, lines := 0, 0
	for key, d := range a.decls {
		if d.inTest || byPrograms[key] || (d.iface != "" && !byPrograms[d.iface]) {
			continue // the last: an unreached interface is reported once, not per method
		}
		count++
		lines += d.lines
		where := fmt.Sprintf("%s (%s:%d, %d lines)", key, strings.TrimPrefix(d.pos.Filename, a.root), d.pos.Line, d.lines)
		row := key
		if _, ok := reachKept[row]; !ok {
			row = d.pkg
		}
		switch _, ok := reachKept[row]; {
		case !ok && byTests[key]:
			report = append(report, where+": reached by tests only and not in reachKept")
		case !ok:
			report = append(report, where+": reached by nothing and not in reachKept")
		case !byTests[key]:
			matched[row] = true
			report = append(report, where+": in reachKept but no test reaches it either")
		default:
			matched[row] = true
		}
	}
	for row := range reachKept {
		if !matched[row] {
			report = append(report, row+": reachKept row matches no unreachable declaration (deleted, renamed, or reached by a program)")
		}
	}
	t.Logf("%d non-test declarations (%d lines) are reached by no program; %d reachKept rows", count, lines, len(reachKept))

	unwritten, unread := 0, 0
	matched = map[string]bool{}
	for pos, f := range a.fields {
		w, r := a.written[pos], a.read[pos]
		_, kept := fieldsKept[f.name]
		where := fmt.Sprintf("%s (%s:%d)", f.name, strings.TrimPrefix(pos.Filename, a.root), pos.Line)
		switch {
		case f.exported && !w.program:
			unwritten++
			switch {
			case !kept && w.test:
				report = append(report, where+": field written by tests only and not in fieldsKept")
			case !kept:
				report = append(report, where+": field written by nothing and not in fieldsKept")
			case !w.test:
				matched[f.name] = true
				report = append(report, where+": in fieldsKept but no test writes it either")
			default:
				matched[f.name] = true
			}
		case !r.program:
			unread++
			switch {
			case !kept && r.test:
				report = append(report, where+": field read by tests only and not in fieldsKept")
			case !kept:
				report = append(report, where+": field read by nothing and not in fieldsKept")
			default:
				matched[f.name] = true
			}
		}
	}
	for row := range fieldsKept {
		if !matched[row] {
			report = append(report, row+": fieldsKept row matches no unwritten or unread field (deleted, renamed, or written and read by a program)")
		}
	}
	t.Logf("of %d struct fields under internal/ and cmd/, %d exported ones are written by no program and %d are read by none; %d fieldsKept rows", len(a.fields), unwritten, unread, len(fieldsKept))
	sort.Strings(report)
	for _, line := range report {
		t.Error(line)
	}
}
