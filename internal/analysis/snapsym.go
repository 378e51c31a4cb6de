package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Snapsym enforces the snapshot round-trip contract at compile time:
// for every SnapshotTo/RestoreFrom method pair (exported or not) and
// every package-level EncodeX/DecodeX function pair, the ordered
// sequence of snap.Encoder payload writes must mirror the sequence of
// snap.Decoder payload reads — the envelope has no field tags, so one
// missing or transposed read silently shears every subsequent field
// and the checksum cannot help (it validates bytes, not their
// interpretation). It also requires every exported non-func field of a
// snapshotting type to be referenced while capturing (directly or via
// helpers like the config-hash builders), or explicitly waived with
// //facs:nosnap <why> — new exported state that silently misses the
// snapshot would survive a crash as a zero value.
//
// The sequence check is control-flow aware but approximate in a
// direction chosen to avoid false positives: for each function it
// enumerates the call sequences of all branch paths that reach the
// function's end (early error returns are excluded), takes each loop
// body exactly once, collapses consecutive repeats of the same method
// (an unrolled write loop mirrors a rolled read loop), and compares
// the resulting path sets. Pairs whose branch structure exceeds the
// enumeration budget are skipped.
var Snapsym = &Analyzer{
	Name: "snapsym",
	Doc:  "checks snap.Encoder/Decoder call-sequence symmetry of SnapshotTo/RestoreFrom and EncodeX/DecodeX pairs, and exported-field coverage of snapshotting types",
	Run:  runSnapsym,
}

// snapPayloadMethods are the Encoder/Decoder methods that move payload
// bytes; bookkeeping calls (Close, Err, Len, Fail) are not sequenced.
var snapPayloadMethods = map[string]bool{
	"U8": true, "Bool": true, "U32": true, "U64": true, "I64": true,
	"Int": true, "F64": true, "Str": true, "F64s": true, "Blob": true,
}

const snapsymMaxPaths = 512

// snapPairKey names one codec pair: the receiver type of a
// SnapshotTo/RestoreFrom pair, or the X of an EncodeX/DecodeX pair.
type snapPairKey struct {
	tn     *types.TypeName
	suffix string
}

func runSnapsym(pass *Pass) error {
	pkg := pass.Pkg
	type pair struct{ snap, restore *ast.FuncDecl }
	pairs := map[snapPairKey]*pair{}
	var order []snapPairKey
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key, write, ok := snapCodecKey(pkg, fd)
			if !ok {
				continue
			}
			p := pairs[key]
			if p == nil {
				p = &pair{}
				pairs[key] = p
				order = append(order, key)
			}
			if write {
				p.snap = fd
			} else {
				p.restore = fd
			}
		}
	}
	for _, key := range order {
		p := pairs[key]
		if p.snap == nil || p.restore == nil {
			continue
		}
		if key.tn == nil {
			checkSnapSequences(pass, p.restore.Name.Name, p.snap, p.restore)
			continue
		}
		checkSnapSequences(pass, key.tn.Name()+"."+p.restore.Name.Name, p.snap, p.restore)
		checkSnapFieldCoverage(pass, key.tn, p.snap)
	}
	return nil
}

// snapCodecKey classifies fd as the write (write=true) or read half of
// a codec pair; ok is false for any other function.
func snapCodecKey(pkg *Package, fd *ast.FuncDecl) (key snapPairKey, write, ok bool) {
	name := fd.Name.Name
	if fd.Recv == nil {
		if suffix, found := strings.CutPrefix(name, "Encode"); found && suffix != "" {
			return snapPairKey{suffix: suffix}, true, true
		}
		if suffix, found := strings.CutPrefix(name, "Decode"); found && suffix != "" {
			return snapPairKey{suffix: suffix}, false, true
		}
		return key, false, false
	}
	switch name {
	case "SnapshotTo", "snapshotTo":
		write = true
	case "RestoreFrom", "restoreFrom":
	default:
		return key, false, false
	}
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return key, false, false
	}
	named := receiverNamed(fn)
	if named == nil {
		return key, false, false
	}
	return snapPairKey{tn: named.Obj()}, write, true
}

func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// checkSnapSequences compares the write-path set of the encoding half
// with the read-path set of the decoding half, reported as restore.
func checkSnapSequences(pass *Pass, restore string, snapFD, restoreFD *ast.FuncDecl) {
	writes, wOK := snapPathSet(pass.Pkg, snapFD, "Encoder")
	reads, rOK := snapPathSet(pass.Pkg, restoreFD, "Decoder")
	if !wOK || !rOK {
		return // over the enumeration budget: cannot verify
	}
	if len(writes) == 0 && len(reads) == 0 {
		return
	}
	missing := diffPaths(writes, reads)
	extra := diffPaths(reads, writes)
	if len(missing) == 0 && len(extra) == 0 {
		return
	}
	var parts []string
	if len(missing) > 0 {
		parts = append(parts, "write path ["+missing[0]+"] has no matching read path")
	}
	if len(extra) > 0 {
		parts = append(parts, "read path ["+extra[0]+"] has no matching write path")
	}
	pass.Reportf(restoreFD.Name.Pos(), "%s does not mirror %s: %s (sequences are loop-collapsed; branches compared as path sets)",
		restore, snapFD.Name.Name, strings.Join(parts, "; "))
}

func diffPaths(a, b []string) []string {
	in := map[string]bool{}
	for _, p := range b {
		in[p] = true
	}
	var out []string
	for _, p := range a {
		if !in[p] {
			out = append(out, p)
		}
	}
	return out
}

// snapPath is one branch path's call sequence while it is being built.
type snapPath struct {
	seq  []string
	term int // 0 flows on, 1 returned (kept), 2 returned (error path, dropped)
}

// snapPathSet enumerates the payload-call sequences of every kept
// branch path through fd, loop bodies taken once, consecutive repeats
// collapsed. ok is false when the function exceeds the path budget.
func snapPathSet(pkg *Package, fd *ast.FuncDecl, recvType string) (paths []string, ok bool) {
	w := &snapWalker{pkg: pkg, recvType: recvType}
	final := w.stmts(fd.Body.List, []snapPath{{}})
	if w.overflow {
		return nil, false
	}
	seen := map[string]bool{}
	for _, p := range final {
		if p.term == 2 {
			continue
		}
		key := strings.Join(collapseRuns(p.seq), " ")
		if !seen[key] {
			seen[key] = true
			paths = append(paths, key)
		}
	}
	sort.Strings(paths)
	return paths, true
}

func collapseRuns(seq []string) []string {
	var out []string
	for _, s := range seq {
		if len(out) == 0 || out[len(out)-1] != s {
			out = append(out, s)
		}
	}
	return out
}

type snapWalker struct {
	pkg      *Package
	recvType string // "Encoder" or "Decoder"
	overflow bool
}

// stmts threads every flowing path through the statement list.
func (w *snapWalker) stmts(list []ast.Stmt, in []snapPath) []snapPath {
	cur := in
	for _, stmt := range list {
		var next []snapPath
		for _, p := range cur {
			if p.term != 0 {
				next = append(next, p)
				continue
			}
			next = append(next, w.stmt(stmt, p)...)
		}
		cur = next
		if len(cur) > snapsymMaxPaths {
			w.overflow = true
			return cur[:0]
		}
	}
	return cur
}

// stmt extends one flowing path through a statement, branching as
// needed.
func (w *snapWalker) stmt(s ast.Stmt, p snapPath) []snapPath {
	extend := func(base snapPath, calls ...[]string) snapPath {
		seq := append([]string{}, base.seq...)
		for _, c := range calls {
			seq = append(seq, c...)
		}
		return snapPath{seq: seq, term: base.term}
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, []snapPath{p})
	case *ast.IfStmt:
		if s.Init != nil {
			outs := w.stmt(s.Init, p)
			var all []snapPath
			for _, o := range outs {
				all = append(all, w.ifTail(s, o)...)
			}
			return all
		}
		return w.ifTail(s, p)
	case *ast.SwitchStmt:
		p = extend(p, w.callsIn(s.Init), w.callsInExpr(s.Tag))
		return w.caseBodies(s.Body, p)
	case *ast.TypeSwitchStmt:
		p = extend(p, w.callsIn(s.Init), w.callsIn(s.Assign))
		return w.caseBodies(s.Body, p)
	case *ast.ForStmt:
		p = extend(p, w.callsIn(s.Init), w.callsInExpr(s.Cond), w.callsIn(s.Post))
		return w.stmts(s.Body.List, []snapPath{p})
	case *ast.RangeStmt:
		p = extend(p, w.callsInExpr(s.X))
		return w.stmts(s.Body.List, []snapPath{p})
	case *ast.ReturnStmt:
		p = extend(p, nil)
		for _, r := range s.Results {
			p.seq = append(p.seq, w.callsInExpr(r)...)
		}
		if returnKept(w.pkg, s) {
			p.term = 1
		} else {
			p.term = 2
		}
		return []snapPath{p}
	case *ast.BranchStmt:
		// break/continue rejoin the flow after the (once-unrolled) loop;
		// treating them as no-ops keeps the common "break on latched
		// error" guard from truncating the compared sequence.
		return []snapPath{p}
	default:
		return []snapPath{extend(p, w.callsIn(s))}
	}
}

func (w *snapWalker) ifTail(s *ast.IfStmt, p snapPath) []snapPath {
	p.seq = append(append([]string{}, p.seq...), w.callsInExpr(s.Cond)...)
	thenPaths := w.stmts(s.Body.List, []snapPath{p})
	var elsePaths []snapPath
	if s.Else != nil {
		elsePaths = w.stmt(s.Else, p)
	} else {
		elsePaths = []snapPath{p}
	}
	return append(thenPaths, elsePaths...)
}

func (w *snapWalker) caseBodies(body *ast.BlockStmt, p snapPath) []snapPath {
	var out []snapPath
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		branch := p
		branch.seq = append([]string{}, p.seq...)
		for _, e := range cc.List {
			branch.seq = append(branch.seq, w.callsInExpr(e)...)
		}
		out = append(out, w.stmts(cc.Body, []snapPath{branch})...)
	}
	if !hasDefault || len(out) == 0 {
		out = append(out, p)
	}
	return out
}

// callsIn collects tracked payload calls of a leaf statement in source
// order.
func (w *snapWalker) callsIn(n ast.Node) []string {
	if n == nil {
		return nil
	}
	var out []string
	ast.Inspect(n, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			if name, ok := w.payloadCall(call); ok {
				out = append(out, name)
			}
		}
		return true
	})
	return out
}

func (w *snapWalker) callsInExpr(e ast.Expr) []string {
	if e == nil {
		return nil
	}
	return w.callsIn(e)
}

// payloadCall reports whether call is a payload method on the tracked
// snap type.
func (w *snapWalker) payloadCall(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !snapPayloadMethods[sel.Sel.Name] {
		return "", false
	}
	tv, ok := w.pkg.Info.Types[sel.X]
	if !ok {
		return "", false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != w.recvType {
		return "", false
	}
	if pkg := named.Obj().Pkg(); pkg == nil || pkg.Name() != "snap" {
		return "", false
	}
	return sel.Sel.Name, true
}

// returnKept classifies a return statement: error-path returns are
// excluded from the compared path set. A return is kept when it is
// bare or its last result (the error) is nil or a Close/Err call on
// the snap Encoder/Decoder (the canonical success epilogues); a
// decoder's decoded value ahead of the error is not inspected.
func returnKept(pkg *Package, s *ast.ReturnStmt) bool {
	if len(s.Results) == 0 {
		return true
	}
	switch r := s.Results[len(s.Results)-1].(type) {
	case *ast.Ident:
		return r.Name == "nil"
	case *ast.CallExpr:
		sel, ok := r.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Close" && sel.Sel.Name != "Err") {
			return false
		}
		tv, ok := pkg.Info.Types[sel.X]
		if !ok {
			return false
		}
		t := tv.Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		return ok && (named.Obj().Name() == "Encoder" || named.Obj().Name() == "Decoder")
	default:
		return false
	}
}

// checkSnapFieldCoverage requires every exported, snapshotable field
// of the receiver type to be referenced while capturing.
func checkSnapFieldCoverage(pass *Pass, tn *types.TypeName, snapFD *ast.FuncDecl) {
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	referenced := map[*types.Var]bool{}
	collectFieldRefs(pass, pass.Pkg, snapFD, referenced, map[*ast.FuncDecl]bool{}, 4)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() || referenced[f] {
			continue
		}
		switch f.Type().Underlying().(type) {
		case *types.Signature, *types.Chan:
			continue // not snapshotable state
		}
		if pass.suppressed(pass.Pkg, f.Pos(), "nosnap") {
			continue
		}
		pass.Reportf(f.Pos(), "exported field %s.%s is not referenced by %s; capture it (or fold it into the config hash) or annotate //facs:nosnap <why>",
			tn.Name(), f.Name(), snapFD.Name.Name)
	}
}

// collectFieldRefs gathers every struct field selected in fd's body
// and, transitively, in the bodies of statically-resolved callees
// (bounded depth) — config-hash helpers count as capturing. pkg must
// be the package fd is declared in; callees resolve through their own
// packages' type info.
func collectFieldRefs(pass *Pass, pkg *Package, fd *ast.FuncDecl, out map[*types.Var]bool, seen map[*ast.FuncDecl]bool, depth int) {
	if fd == nil || fd.Body == nil || seen[fd] || depth < 0 {
		return
	}
	seen[fd] = true
	recurse := func(fn *types.Func) {
		if callee := pass.Prog.FuncDecl(fn); callee != nil {
			collectFieldRefs(pass, callee.Pkg, callee.Decl, out, seen, depth-1)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel, ok := pkg.Info.Selections[n]; ok {
				if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
					out[v] = true
				}
			}
			if fn, ok := pkg.Info.Uses[n.Sel].(*types.Func); ok {
				recurse(fn)
			}
		case *ast.Ident:
			if fn, ok := pkg.Info.Uses[n].(*types.Func); ok {
				recurse(fn)
			}
		}
		return true
	})
}
