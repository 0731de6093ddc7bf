package lint

import (
	"go/ast"
	"go/types"
)

// seededRandCtors are the math/rand constructors that take (or wrap) an
// explicit seed; everything else package-level in math/rand draws from
// the global, non-deterministically seeded source.
var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewZipf": true, "NewChaCha8": true,
}

// NoClock guards the simulator's trace determinism: internal/mic and the
// access drivers under it (internal/mic/access) model Xeon Phi timing from
// counted work, so the same inputs must produce the same report
// bit-for-bit. Wall-clock reads (time.Now/Since/...) and the globally
// seeded math/rand source would make simulated results vary run-to-run;
// randomness must come from an explicitly seeded rand.Rand and time must
// be simulated.
var NoClock = &Analyzer{
	Name: "noclock",
	Doc:  "internal/mic must not read the wall clock or unseeded math/rand",
	Run: func(p *Pass) {
		if !pathWithin(p.Path, "internal/mic") {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isPkgFunc(p, call, "time", "Now", "Since", "Until", "Tick", "After", "AfterFunc", "NewTicker", "NewTimer") {
					p.Reportf(call.Pos(), "wall-clock call time.%s inside internal/mic; the simulator must stay trace-deterministic (model time from counted work)", calleeFunc(p, call).Name())
					return true
				}
				fn := calleeFunc(p, call)
				if fn != nil && fn.Pkg() != nil && fn.Type().(*types.Signature).Recv() == nil {
					path := fn.Pkg().Path()
					if (path == "math/rand" || path == "math/rand/v2") && !seededRandCtors[fn.Name()] {
						p.Reportf(call.Pos(), "globally seeded rand.%s inside internal/mic; draw from an explicitly seeded rand.Rand so simulated runs reproduce", fn.Name())
					}
				}
				return true
			})
		}
	},
}
