package core

// FileSpans exposes fileSpans to the external test package, which imports
// the workload registry (itself an importer of core).
var FileSpans = fileSpans
