// Package hotset names the decision hot path — the functions that run on
// every cycle and are therefore held to the fixed-cycle contracts (zero
// allocations, bounded loops). It is the one shared definition the
// allocation analyzer (allocproof) and the trip-count analyzer
// (boundedloop) agree on: the built-in per-package lists below plus any
// function annotated //sslint:hotpath in its doc comment.
package hotset

import (
	"go/ast"

	"repro/internal/lint/analysis"
)

// builtin names the hot-path functions per package path. Methods are
// qualified by their receiver's base type ("Network.Run") so same-named
// functions on other types — shuffle's gate-level Structural.Run, say — stay
// out of the hot set.
var builtin = map[string]map[string]bool{
	"repro/internal/core": {
		"Scheduler.cycle": true, "Scheduler.RunCycles": true, "Scheduler.RunFor": true,
		"Scheduler.syncSources": true, "transmission": true, "Scheduler.observe": true,
	},
	"repro/internal/shuffle": {
		"Network.run": true, "Network.emitBlock": true,
		"Network.Run": true, "Network.RunAt": true, "Network.RunKeyed": true,
		"Network.RunLoaded": true, "Network.RunLoadedLight": true,
		"Network.SetInput": true, "Network.SetInputKey": true,
		// The SoA key plane: the branch-free pass kernels, the per-key
		// window-safety bookkeeping, and the dense-lane credit fold.
		"Network.runPaperLogNSoA": true, "Network.runTournamentSoA": true,
		"Network.runBitonicSoA": true, "Network.lightFromFiles": true,
		"Network.keyUnsafe": true, "Network.noteKey": true, "Network.rebase": true,
		"Network.creditCompares": true, "Network.flushCredits": true,
	},
	"repro/internal/qm": {
		// The shared buffer pool's lend/reclaim/measure path runs on every
		// Offer and card-side dequeue past the reservation.
		"pool.admit": true, "pool.release": true, "pool.reclaim": true, "pool.measure": true,
	},
	"repro/internal/decision": {
		"FastOrder": true, "KeyTie": true, "Compare": true, "Block.Compare": true,
		"Block.CompareKeyed": true, "compare": true, "order": true, "Less": true,
		"Program.Rank": true,
	},
	"repro/internal/attr": {
		"Attributes.Key": true, "Attributes.KeyWith": true, "KeyConstraint": true,
	},
	"repro/internal/regblock": {
		"Block.Out": true, "Block.Key": true, "Block.Gen": true, "Block.Valid": true,
		"Block.SetKeyRef": true, "Block.rekey": true, "Block.rekeyConstraint": true,
		"Block.setHead": true, "Block.deadlineFor": true, "Block.Load": true,
		"Block.advance": true, "Block.Service": true, "Block.winnerWindowAdjust": true,
		"Block.ExpireCheck": true, "Block.loserWindowAdjust": true, "Block.Refill": true,
		"Block.guardCheck":    true,
		"previewWinnerWindow": true, "previewLoserWindow": true,
	},
}

// QualifiedName returns "Recv.Name" for methods and "Name" for functions,
// unwrapping pointer and generic receivers.
func QualifiedName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// IsHot reports whether fd belongs to the hot set of the package at
// pkgPath: on the built-in list, or carrying the //sslint:hotpath marker.
func IsHot(pkgPath string, fd *ast.FuncDecl) bool {
	return builtin[pkgPath][QualifiedName(fd)] ||
		analysis.CommentHasMarker([]*ast.CommentGroup{fd.Doc}, "hotpath")
}
