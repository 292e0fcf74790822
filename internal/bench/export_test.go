package bench

// UpdateGolden exposes the -update-golden flag to the external test
// package.
var UpdateGolden = updateGolden
