// Package floatfix seeds floating-point equality comparisons and the
// suppression-directive edge cases. Linted under the virtual import
// path fsoi/internal/optics (model code).
package floatfix

func compare(a, b float64, i, j int) bool {
	if a == b { // want "floateq: floating-point == comparison"
		return true
	}
	if a != b { // want "floateq: floating-point != comparison"
		return false
	}
	if i == j { // integers: not a finding
		return true
	}
	if a != a { // want "floateq: floating-point != comparison"
		return false
	}
	return 1.5 == 1.5 // both constant, folds at compile time: not a finding
}

func suppressedTrailing(a, b float64) bool {
	return a == b //lint:allow floateq fixture exercises the trailing-comment suppression path
}

func suppressedAbove(a, b float64) bool {
	//lint:allow floateq fixture exercises the comment-above suppression path
	return a == b
}

func missingReason(a, b float64) bool {
	return a == b //lint:allow floateq
	// want-above "floateq: floating-point == comparison" "lint: .* has no reason"
}

func unknownAnalyzer(a, b float64) bool {
	return a == b //lint:allow bogus this analyzer does not exist
	// want-above "floateq: floating-point == comparison" "lint: .* unknown analyzer"
}

func stale(i, j int) bool {
	//lint:allow maporder stale excuse for code that was since fixed
	return i == j // want-above "lint: unused suppression"
}
