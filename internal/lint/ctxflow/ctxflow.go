// Package ctxflow enforces PR 3's cancellation contract: every
// task-running path in the engine accepts a context.Context from its caller
// and actually threads it downward, so -timeout, SIGINT/SIGTERM and
// per-request server deadlines reach every worker. Inside the engine
// packages it flags (1) context.Background()/context.TODO(), which sever
// the cancellation chain — only main functions and tests may mint root
// contexts — and (2) exported functions that accept a ctx parameter and
// then ignore it, which is how propagation silently breaks.
package ctxflow

import (
	"go/ast"
	"go/types"

	"prefetchlab/internal/lint"
)

// Engine names the packages (by import-path base) whose exported surface
// runs tasks: the worker pool, the figure drivers, the HTTP front end and
// its client, the mix runner, the sampling pipeline, the static analyzer,
// the multi-tenant admission layer and the result cache.
var Engine = map[string]bool{
	"sched":       true,
	"experiments": true,
	"serve":       true,
	"client":      true,
	"mix":         true,
	"pipeline":    true,
	"staticprof":  true,
	"tenant":      true,
	"resultcache": true,
}

// Analyzer is the ctxflow pass.
var Analyzer = &lint.Analyzer{
	Name: "ctxflow",
	Doc: "engine packages must propagate caller contexts: no context.Background/TODO " +
		"outside main and tests, and exported functions must use the ctx they accept",
	Run: run,
}

func run(pass *lint.Pass) error {
	if !Engine[pass.PkgBase()] || pass.Pkg.Name() == "main" {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				obj := lint.CalleeObj(pass.Info, n)
				if lint.IsPkgFunc(obj, "context", "Background") || lint.IsPkgFunc(obj, "context", "TODO") {
					pass.Reportf(n.Pos(), "context.%s severs the cancellation chain inside an engine package; accept a ctx from the caller (root contexts belong in main and tests)", obj.Name())
				}
			case *ast.FuncDecl:
				checkUnusedCtx(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkUnusedCtx flags exported functions that take a context.Context and
// never reference it: the signature promises cancellation support the body
// does not deliver.
func checkUnusedCtx(pass *lint.Pass, fn *ast.FuncDecl) {
	if fn.Body == nil || !fn.Name.IsExported() || fn.Type.Params == nil {
		return
	}
	for _, field := range fn.Type.Params.List {
		if !isContextType(pass.Info.Types[field.Type].Type) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := pass.Info.Defs[name]
			if obj == nil {
				continue
			}
			if !objUsed(pass.Info, fn.Body, obj) {
				pass.Reportf(name.Pos(), "exported %s accepts ctx but never uses it; propagate it to callees (or name it _ and document why cancellation does not apply)", fn.Name.Name)
			}
		}
	}
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func objUsed(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			used = true
			return false
		}
		return true
	})
	return used
}
