#: Optimisation pipeline version, part of the persistent code cache's
#: context key (core.codecache): bump on any change to opt1/opt2/
#: flatten/treebuild that alters translation output.
OPT_PIPELINE_VERSION = 2
