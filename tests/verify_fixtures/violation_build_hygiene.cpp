// Fixture: a translation unit flipping FP_CONTRACT ON voids the batch
// engine's bit-exactness contract (fused a*b+c rounds once, the one-key
// reference path rounds twice).
#pragma STDC FP_CONTRACT ON  // expect: build-hygiene

double contracted(double a, double b, double c) { return a * b + c; }
