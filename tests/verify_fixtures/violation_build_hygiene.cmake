# Fixture: value-unsafe floating-point modes in build files. Each flag
# below reassociates or contracts FP arithmetic, so batch results would
# differ from the one-key path and across thread counts.
add_compile_options(-ffast-math)  # expect: build-hygiene
set(CMAKE_CXX_FLAGS "${CMAKE_CXX_FLAGS} -ffp-contract=fast")  # expect: build-hygiene
# A flag named only in a comment is inert: -Ofast must not fire here.
