package ntriples

// CheckReadTriples is checkReadTriples for the external fuzz tests.
var CheckReadTriples = checkReadTriples
