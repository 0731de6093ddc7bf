package svm

//lint:file-allow f32purity the phase's α, gradient, direction and sums are float64, as α and step are; only its mat-vec is float32

import "math"

// conjugate is the phase a fold enters when 2n SMO iterations have not
// closed it (DESIGN.md §17): active-set projected conjugate gradient on
// β = α∘y, gradient h = Kβ − y = −v (coef), from W = {0 < α < C} (mask m,
// free), Fletcher–Reeves over r = m∘(μ − h), μ h's mean on W. A box cut
// fixes its variable; at max|r| < eps/4 variables whose gradient points
// in by more than eps are released. Bad curvature, rᵀd ≤ 0 or n mat-vecs
// end it; v and the masks are rebuilt from α. It returns mat-vecs.
//
//lint:hotpath once per fold that SMO has not closed in 2n iterations
func (s *smo32) conjugate() (steps int) {
	n, c := s.n, s.c
	np := (n + 3) &^ 3
	alpha, y, v := s.alpha[:np], s.y[:np], s.v[:n]
	h, d, m, q := s.coef[:np], s.dir[:np], s.free[:np], s.q[:np]
	for t := range np {
		h[t], d[t], m[t], q[t] = 0, 0, 0, 0
		if t >= n {
			alpha[t], y[t] = 0, 0
		} else if h[t] = -float64(v[t]); alpha[t] > 0 && alpha[t] < c {
			m[t] = 1
		}
	}
	direction, curvature, advance, matvec := directionGo, curvatureGo, advanceGo, matvecGo
	if useAVX2 {
		direction, curvature, advance, matvec = directionAVX2, curvatureAVX2, advanceAVX2, matvecAVX2
	}
	var mu, rd, dq, sq, rr, rrPrev, rmax, lmax float64
	rows, restart, moved := s.byClass[:0], true, false
	for steps < n {
		if restart {
			if rows, mu = s.freeRows(); len(rows) == 0 {
				break
			}
			rr, rmax = advance(s, 0, mu) // a zero step: r, exactly
			rrPrev = math.Inf(1)         // γ = 0
		}
		if rmax < s.eps/4 {
			if restart = s.release(mu); !restart {
				break
			}
			continue
		}
		rd, lmax = direction(s, mu, rr/rrPrev)
		matvec(s.kd[:n*n], rows, v, q[:n])
		steps++
		if dq, sq = curvature(s); !(dq > 0 && dq <= math.MaxFloat64 && rd > 0) || sq-sq != 0 {
			break // not a finite descent step
		}
		lam, k := rd/dq, -1
		if lam >= lmax {
			lam, k = lmax, s.cutAt(lmax)
		}
		mu += lam * sq / float64(len(rows))
		rrPrev, restart, moved = rr, k >= 0, true
		if rr, rmax = advance(s, lam, mu); restart {
			s.fix(k)
		}
	}
	if moved {
		rows, k := s.byClass[:n], 0
		for t, a := range alpha[:n] {
			if v[t] = float32(a * y[t]); a != 0 {
				rows[k], k = t, k+1
			}
		}
		matvec(s.kd[:n*n], rows[:k], v, q[:n])
		for t, qt := range q[:n] {
			v[t] = float32(y[t] - float64(qt))
			s.outUp[t], s.outLow[t] = outside(y[t], alpha[t], c)
		}
	}
	return steps
}

// directionGo sets d = r + γ·d, x = float32(d), returns rᵀd and the box's
// longest step; its sums end (l₀ + l₂) + (l₁ + l₃), lane t mod 4, as asm.
func directionGo(s *smo32, mu, gamma float64) (rd, lmax float64) {
	np := (s.n + 3) &^ 3
	h, m, d, alpha, y, x := s.coef[:np], s.free[:np], s.dir[:np], s.alpha[:np], s.y[:np], s.v[:np]
	var l [4]float64
	lmax = math.Inf(1)
	for t, ht := range h {
		r := m[t] * (mu - ht)
		dt := r + float64(gamma*d[t])
		d[t], x[t] = dt, float32(dt)
		l[t&3] += float64(r * dt)
		if ratio := s.room(alpha[t], float64(y[t]*dt)) / math.Abs(dt); ratio < lmax {
			lmax = ratio
		}
	}
	return (l[0] + l[2]) + (l[1] + l[3]), lmax
}

// room is how far α may move along the sign of yd before a bound.
func (s *smo32) room(alpha, yd float64) float64 {
	if yd > 0 {
		return s.c - alpha
	}
	return alpha
}

// curvatureGo returns dᵀKd and Σ_W Kd.
func curvatureGo(s *smo32) (dq, sq float64) {
	np := (s.n + 3) &^ 3
	d, m, q := s.dir[:np], s.free[:np], s.q[:np]
	var a, b [4]float64
	for t, qt := range q {
		a[t&3] += float64(d[t] * float64(qt))
		b[t&3] += float64(m[t] * float64(qt))
	}
	return (a[0] + a[2]) + (a[1] + a[3]), (b[0] + b[2]) + (b[1] + b[3])
}

// advanceGo steps α += λ·y∘d (kept in [0, C]), h += λ·Kd; rᵀr, max|r|.
func advanceGo(s *smo32, lam, mu float64) (rr, rmax float64) {
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
		alpha[t] = a
		h[t] += float64(lam * float64(qt))
		r := m[t] * (mu - h[t])
		l[t&3] += float64(r * r)
		if r = math.Abs(r); r > rmax {
			rmax = r
		}
	}
	return (l[0] + l[2]) + (l[1] + l[3]), rmax
}

// cutAt returns the first position whose bound allows a step of lmax.
func (s *smo32) cutAt(lmax float64) int {
	for t, dt := range s.dir[:s.n] {
		if s.room(s.alpha[t], float64(s.y[t]*dt))/math.Abs(dt) == lmax {
			return t
		}
	}
	return -1
}

// fix puts k, and any of W that moved onto or past a bound, on it.
func (s *smo32) fix(k int) {
	for t, a := range s.alpha[:s.n] {
		yd := float64(s.y[t] * s.dir[t])
		if s.free[t] == 0 || t != k && !(yd > 0 && a >= s.c || yd < 0 && a <= 0) {
			continue
		}
		if a = 0; yd > 0 {
			a = s.c
		}
		s.alpha[t], s.free[t] = a, 0
	}
}

// freeRows lists W in byClass and returns it with μ, h's mean over it.
func (s *smo32) freeRows() (rows []int, mu float64) {
	rows = s.byClass[:0]
	for t, mt := range s.free[:s.n] {
		if mt != 0 {
			rows = append(rows, t)
			mu += s.coef[t]
		}
	}
	return rows, mu / float64(len(rows))
}

// release adds to W each variable whose h − μ is below −eps at β's lower
// bound (α = 0 with y = +1, α = C with y = −1) or above eps at its upper.
func (s *smo32) release(mu float64) bool {
	released := false
	for t, mt := range s.free[:s.n] {
		g, lower := s.coef[t]-mu, (s.y[t] > 0) == (s.alpha[t] == 0)
		if mt == 0 && (lower && g < -s.eps || !lower && g > s.eps) {
			s.free[t], released = 1, true
		}
	}
	return released
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
