package svm

// The phase's α, gradient, direction and sums are float64, as α and
// step's are; only its mat-vec is float32.

import "math"

// conjugate is the phase a fold enters when 2n SMO iterations have not
// closed it (DESIGN.md §17): active-set projected conjugate gradient on
// β = α∘y, gradient h = Kβ − y = −v (coef), from W = {0 < α < C} (mask m,
// free), Fletcher–Reeves over r = m∘(μ − h), μ h's mean on W. A box cut
// fixes its variable; at max|r| < eps/4 variables whose gradient points
// in by more than eps are released. Bad curvature, rᵀd ≤ 0 or n mat-vecs
// end it; v and the masks are rebuilt from α. It returns mat-vecs. The
// O(n) loops a step runs are the passes of a cgPath, in Go or assembly,
// bit for bit; the two that run once per phase or per restart, startGo
// and releaseGo, are Go on every path.
func (s *smo32) conjugate() (steps int) {
	n := s.n
	cg := &cgGo
	if s.lanes > 0 {
		cg = &cgAVX2
	}
	startGo(s)
	var mu, rd, rr, rrPrev, rmax float64
	w, restart, moved := 0, true, false
	for steps < n {
		if restart {
			var sum float64
			if w, sum = cg.freeRows(s); w == 0 {
				break
			}
			mu = sum / float64(w)
			rr, rmax = cg.advance(s, 0, mu, -1) // a zero step: r, exactly
			rrPrev = math.Inf(1)                // γ = 0
		}
		if rmax < s.eps/4 {
			if restart = releaseGo(s, mu); !restart {
				break
			}
			continue
		}
		rd = cg.direction(s, mu, rr/rrPrev)
		dq, sq, lmax, cut := cg.matvec(s, s.byClass[:w], rd)
		steps++
		if !(dq > 0 && dq <= math.MaxFloat64 && rd > 0) || sq-sq != 0 {
			break // not a finite descent step
		}
		lam, k := rd/dq, -1
		if lam >= lmax {
			lam, k = lmax, cut
		}
		mu += lam * sq / float64(w)
		rrPrev, restart, moved = rr, k >= 0, true
		rr, rmax = cg.advance(s, lam, mu, k)
	}
	if moved {
		cg.rebuild(s)
	}
	return steps
}

// cgPath is the phase's passes on one path, over vectors padded with zeros
// to a multiple of four: freeRows lists W and returns |W| and Σ_W h in
// position order; matvec sets q = K·x over the rows and returns dᵀq, Σ_W q
// and, when λ = rd/dᵀq reaches it, cutGo's step and position (else any
// longer step); advance also fixes a cut k ≥ 0 and any of W carried onto
// a bound. cgGo is the reference and the only path off amd64.
type cgPath struct {
	freeRows  func(s *smo32) (w int, sum float64)
	direction func(s *smo32, mu, gamma float64) (rd float64)
	matvec    func(s *smo32, rows []int, rd float64) (dq, sq, lmax float64, k int)
	advance   func(s *smo32, lam, mu float64, k int) (rr, rmax float64)
	rebuild   func(s *smo32)
}

var cgGo = cgPath{freeRowsGo, directionGo, matvecGoCut, advanceGo, rebuildGo}

func startGo(s *smo32) {
	n := s.n
	np := (n + 3) &^ 3
	alpha, y, v := s.alpha[:np], s.y[:np], s.v[:n]
	h, d, m, q := s.coef[:np], s.dir[:np], s.free[:np], s.q[:np]
	for t := range np {
		h[t], d[t], m[t], q[t] = 0, 0, 0, 0
		if t >= n {
			alpha[t], y[t] = 0, 0
		} else if h[t] = -float64(v[t]); alpha[t] > 0 && alpha[t] < s.c {
			m[t] = 1
		}
	}
}

func freeRowsGo(s *smo32) (w int, sum float64) {
	rows := s.byClass[:s.n]
	for t, mt := range s.free[:s.n] {
		if mt != 0 {
			rows[w], w = t, w+1
			sum += s.coef[t]
		}
	}
	return w, sum
}

// releaseGo: β's lower bound is α = 0 with y = +1 and α = C with y = −1.
func releaseGo(s *smo32, mu float64) bool {
	released := false
	for t, mt := range s.free[:s.n] {
		g, lower := s.coef[t]-mu, (s.y[t] > 0) == (s.alpha[t] == 0)
		if mt == 0 && (lower && g < -s.eps || !lower && g > s.eps) {
			s.free[t], released = 1, true
		}
	}
	return released
}

// directionGo's sum ends (l₀ + l₂) + (l₁ + l₃), lane t mod 4, as asm.
func directionGo(s *smo32, mu, gamma float64) (rd float64) {
	np := (s.n + 3) &^ 3
	h, m, d, x := s.coef[:np], s.free[:np], s.dir[:np], s.v[:np]
	var l [4]float64
	for t, ht := range h {
		r := m[t] * (mu - ht)
		dt := r + float64(gamma*d[t])
		d[t], x[t] = dt, float32(dt)
		l[t&3] += float64(r * dt)
	}
	return (l[0] + l[2]) + (l[1] + l[3])
}

// cutGo returns the box's longest step along d, the least ratio of the
// room to a bound along y·d to |d|, and its first position; a NaN (a pad,
// d = 0 at a bound) is never taken.
func cutGo(s *smo32) (lmax float64, k int) {
	np := (s.n + 3) &^ 3
	d, alpha, y := s.dir[:np], s.alpha[:np], s.y[:np]
	lmax, k = math.Inf(1), -1
	for t, dt := range d {
		room := alpha[t]
		if float64(y[t]*dt) > 0 {
			room = s.c - alpha[t]
		}
		if ratio := room / math.Abs(dt); ratio < lmax || ratio == lmax && k < 0 {
			lmax, k = ratio, t
		}
	}
	return lmax, k
}

// matvecGoCut is matvecGo, dᵀq and Σ_W q (lane t mod 4), then cutGo.
func matvecGoCut(s *smo32, rows []int, _ float64) (dq, sq, lmax float64, k int) {
	n := s.n
	np := (n + 3) &^ 3
	matvecGo(s.kd[:n*n], rows, s.v[:n], s.q[:n])
	d, m, q := s.dir[:np], s.free[:np], s.q[:np]
	var a, b [4]float64
	for t, qt := range q {
		a[t&3] += float64(d[t] * float64(qt))
		b[t&3] += float64(m[t] * float64(qt))
	}
	dq, sq = (a[0]+a[2])+(a[1]+a[3]), (b[0]+b[2])+(b[1]+b[3])
	lmax, k = cutGo(s)
	return dq, sq, lmax, k
}

// advanceGo steps α += λ·y∘d (kept in [0, C]) and h += λ·Kd. rᵀr and
// max|r| are those of W before the cut's fix, which only a restart reads.
func advanceGo(s *smo32, lam, mu float64, k int) (rr, rmax float64) {
	np := (s.n + 3) &^ 3
	alpha, y, d, h, m, q := s.alpha[:np], s.y[:np], s.dir[:np], s.coef[:np], s.free[:np], s.q[:np]
	var l [4]float64
	for t, qt := range q {
		a := alpha[t] + float64(float64(lam*y[t])*d[t])
		if !(a > 0) { // rounding may carry a step a few ulps past a bound
			a = 0
		}
		if !(a < s.c) {
			a = s.c
		}
		h[t] += float64(lam * float64(qt))
		r := m[t] * (mu - h[t])
		l[t&3] += float64(r * r)
		if r = math.Abs(r); r > rmax {
			rmax = r
		}
		if yd := float64(y[t] * d[t]); k >= 0 && m[t] != 0 && (t == k || yd > 0 && a >= s.c || yd < 0 && a <= 0) {
			if a, m[t] = 0, 0; yd > 0 {
				a = s.c
			}
		}
		alpha[t] = a
	}
	return (l[0] + l[2]) + (l[1] + l[3]), rmax
}

// rebuildGo is the phase's exit: v = y − K·(α∘y) over the rows α ≠ 0.
func rebuildGo(s *smo32) {
	n := s.n
	rows, k := s.byClass[:n], 0
	for t, a := range s.alpha[:n] {
		if s.v[t] = float32(a * s.y[t]); a != 0 {
			rows[k], k = t, k+1
		}
	}
	matvecGo(s.kd[:n*n], rows[:k], s.v[:n], s.q[:n])
	for t, qt := range s.q[:n] {
		s.v[t] = float32(s.y[t] - float64(qt))
		s.outUp[t], s.outLow[t] = outside(s.y[t], s.alpha[t], s.c)
	}
}

// matvecGo sets q = K·x over the listed rows of kd (K is symmetric), each
// float32 product added in row order from q = 0.
func matvecGo(kd []float32, rows []int, x, q []float32) {
	n := len(q)
	clear(q)
	for _, c := range rows {
		for t, k := range kd[c*n : c*n+n] {
			q[t] += float32(x[c] * k)
		}
	}
}
