class A { /*
>>>>>>> x */ int a;}
