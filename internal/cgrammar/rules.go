package cgrammar

import "repro/internal/lalr"

// The productions follow the classic ANSI C yacc grammar (Jeff Lee's
// formulation of the grammar Roskind documents), with C99 block items,
// designated for-loop declarations, and gnu extensions grafted on. The
// grammar is LALR(1)-clean except for the dangling else, which the default
// shift resolves as in every C compiler.
//
// gcc's __extension__ is a keyword in exactly the four prefix positions
// gcc's own parser accepts it (c-parser.c): before an external declaration,
// a block-scope declaration, a struct member declaration, and a cast
// expression. The token stays in the AST, so printing and renaming keep it.

func defineExpressions(g *lalr.Grammar, b *infoBuilder) {
	b.pass("PrimaryExpression", "IDENTIFIER")
	b.pass("PrimaryExpression", "CONSTANT")
	b.pass("PrimaryExpression", "StringLiterals")
	b.rule("PrimaryExpression", "(", "Expression", ")").WithLabel("ParenExpr")

	b.pass("StringLiterals", "STRING")
	b.list("StringLiterals", "StringLiterals", "STRING")

	b.pass("PostfixExpression", "PrimaryExpression")
	// C99 compound literals: (type){ init-list }.
	b.rule("PostfixExpression", "(", "TypeName", ")", "{", "InitializerList", "}").
		WithLabel("CompoundLiteral")
	b.rule("PostfixExpression", "(", "TypeName", ")", "{", "InitializerList", ",", "}").
		WithLabel("CompoundLiteral")
	b.rule("PostfixExpression", "PostfixExpression", "[", "Expression", "]").WithLabel("IndexExpr")
	b.rule("PostfixExpression", "PostfixExpression", "(", ")").WithLabel("CallExpr")
	b.rule("PostfixExpression", "PostfixExpression", "(", "ArgumentExpressionList", ")").WithLabel("CallExpr")
	b.rule("PostfixExpression", "PostfixExpression", ".", "IDENTIFIER").WithLabel("MemberExpr")
	b.rule("PostfixExpression", "PostfixExpression", "->", "IDENTIFIER").WithLabel("ArrowExpr")
	b.rule("PostfixExpression", "PostfixExpression", "++").WithLabel("PostIncExpr")
	b.rule("PostfixExpression", "PostfixExpression", "--").WithLabel("PostDecExpr")

	b.pass("ArgumentExpressionList", "AssignmentExpression")
	b.list("ArgumentExpressionList", "ArgumentExpressionList", ",", "AssignmentExpression")

	b.pass("UnaryExpression", "PostfixExpression")
	b.rule("UnaryExpression", "++", "UnaryExpression").WithLabel("PreIncExpr")
	b.rule("UnaryExpression", "--", "UnaryExpression").WithLabel("PreDecExpr")
	b.rule("UnaryExpression", "UnaryOperator", "CastExpression").WithLabel("UnaryOpExpr")
	b.rule("UnaryExpression", "sizeof", "UnaryExpression").WithLabel("SizeofExpr")
	b.rule("UnaryExpression", "sizeof", "(", "TypeName", ")").WithLabel("SizeofType")
	b.rule("UnaryExpression", "__extension__", "CastExpression").WithLabel("ExtensionExpr")

	for _, op := range []string{"&", "*", "+", "-", "~", "!"} {
		b.rule("UnaryOperator", op).WithLabel("UnaryOperator")
	}

	b.pass("CastExpression", "UnaryExpression")
	b.rule("CastExpression", "(", "TypeName", ")", "CastExpression").WithLabel("CastExpr")

	binary := func(lhs, rhs string, ops ...string) {
		b.pass(lhs, rhs)
		for _, op := range ops {
			b.rule(lhs, lhs, op, rhs).WithLabel("BinaryExpr")
		}
	}
	binary("MultiplicativeExpression", "CastExpression", "*", "/", "%")
	binary("AdditiveExpression", "MultiplicativeExpression", "+", "-")
	binary("ShiftExpression", "AdditiveExpression", "<<", ">>")
	binary("RelationalExpression", "ShiftExpression", "<", ">", "<=", ">=")
	binary("EqualityExpression", "RelationalExpression", "==", "!=")
	binary("AndExpression", "EqualityExpression", "&")
	binary("ExclusiveOrExpression", "AndExpression", "^")
	binary("InclusiveOrExpression", "ExclusiveOrExpression", "|")
	binary("LogicalAndExpression", "InclusiveOrExpression", "&&")
	binary("LogicalOrExpression", "LogicalAndExpression", "||")

	b.pass("ConditionalExpression", "LogicalOrExpression")
	b.rule("ConditionalExpression", "LogicalOrExpression", "?", "Expression", ":", "ConditionalExpression").
		WithLabel("ConditionalExpr")

	b.pass("AssignmentExpression", "ConditionalExpression")
	b.rule("AssignmentExpression", "UnaryExpression", "AssignmentOperator", "AssignmentExpression").
		WithLabel("AssignExpr")
	for _, op := range []string{"=", "*=", "/=", "%=", "+=", "-=", "<<=", ">>=", "&=", "^=", "|="} {
		b.rule("AssignmentOperator", op).WithLabel("AssignmentOperator")
	}

	b.pass("Expression", "AssignmentExpression")
	b.rule("Expression", "Expression", ",", "AssignmentExpression").WithLabel("CommaExpr")

	b.pass("ConstantExpression", "ConditionalExpression")
}

func defineDeclarations(g *lalr.Grammar, b *infoBuilder) {
	b.rule("Declaration", "DeclarationSpecifiers", ";")
	b.rule("Declaration", "DeclarationSpecifiers", "InitDeclaratorList", ";")

	// DeclarationSpecifiers: right-recursive per the classic grammar.
	for _, kind := range []string{"StorageClassSpecifier", "TypeSpecifier", "TypeQualifier"} {
		b.list("DeclarationSpecifiers", kind)
		b.list("DeclarationSpecifiers", kind, "DeclarationSpecifiers")
	}

	b.pass("InitDeclaratorList", "InitDeclarator")
	b.list("InitDeclaratorList", "InitDeclaratorList", ",", "InitDeclarator")
	// InitDeclarator reductions register declared names in the symbol
	// table. Registration must happen here — before the token after the
	// declarator is classified — so that "typedef int T; T *p;" sees T as a
	// typedef name (the classic lexer-hack ordering).
	reg := func(p *lalr.Production) {
		b.mark(p, func(pi *ProdInfo) { pi.RegistersTypedef = true })
	}
	p1 := b.pass("InitDeclarator", "Declarator")
	reg(p1)
	reg(b.rule("InitDeclarator", "Declarator", "=", "Initializer").WithLabel("InitializedDeclarator"))
	reg(b.rule("InitDeclarator", "Declarator", "AttributeSpecifierList").WithLabel("AttributedDeclarator"))
	reg(b.rule("InitDeclarator", "Declarator", "AttributeSpecifierList", "=", "Initializer").
		WithLabel("InitializedDeclarator"))

	for _, kw := range []string{"typedef", "extern", "static", "auto", "register", "inline", "_Noreturn", "_Thread_local"} {
		b.rule("StorageClassSpecifier", kw).WithLabel("StorageClassSpecifier")
	}

	for _, kw := range []string{"void", "char", "short", "int", "long", "float", "double", "signed", "unsigned", "_Bool"} {
		b.rule("TypeSpecifier", kw).WithLabel("TypeSpecifier")
	}
	b.pass("TypeSpecifier", "StructOrUnionSpecifier")
	b.pass("TypeSpecifier", "EnumSpecifier")
	b.rule("TypeSpecifier", "TYPEDEFNAME").WithLabel("TypedefName")
	b.rule("TypeSpecifier", "typeof", "(", "Expression", ")").WithLabel("TypeofExpr")
	b.rule("TypeSpecifier", "typeof", "(", "TypeName", ")").WithLabel("TypeofType")

	b.rule("StructOrUnionSpecifier", "StructOrUnion", "IDENTIFIER", "{", "StructDeclarationList", "}").
		WithLabel("StructSpecifier")
	b.rule("StructOrUnionSpecifier", "StructOrUnion", "TYPEDEFNAME", "{", "StructDeclarationList", "}").
		WithLabel("StructSpecifier")
	b.rule("StructOrUnionSpecifier", "StructOrUnion", "{", "StructDeclarationList", "}").
		WithLabel("StructSpecifier")
	b.rule("StructOrUnionSpecifier", "StructOrUnion", "IDENTIFIER").WithLabel("StructRef")
	b.rule("StructOrUnionSpecifier", "StructOrUnion", "TYPEDEFNAME").WithLabel("StructRef")
	b.pass("StructOrUnion", "struct")
	b.pass("StructOrUnion", "union")

	b.pass("StructDeclarationList", "StructDeclaration")
	b.list("StructDeclarationList", "StructDeclarationList", "StructDeclaration")
	b.rule("StructDeclaration", "SpecifierQualifierList", "StructDeclaratorList", ";").
		WithLabel("StructDeclaration")
	// gnu: anonymous struct/union members.
	b.rule("StructDeclaration", "SpecifierQualifierList", ";").WithLabel("StructDeclaration")
	b.rule("StructDeclaration", "__extension__", "StructDeclaration").WithLabel("ExtensionStructDeclaration")

	for _, kind := range []string{"TypeSpecifier", "TypeQualifier"} {
		b.list("SpecifierQualifierList", kind)
		b.list("SpecifierQualifierList", kind, "SpecifierQualifierList")
	}

	b.pass("StructDeclaratorList", "StructDeclarator")
	b.list("StructDeclaratorList", "StructDeclaratorList", ",", "StructDeclarator")
	b.pass("StructDeclarator", "Declarator")
	b.rule("StructDeclarator", ":", "ConstantExpression").WithLabel("Bitfield")
	b.rule("StructDeclarator", "Declarator", ":", "ConstantExpression").WithLabel("Bitfield")

	b.rule("EnumSpecifier", "enum", "{", "EnumeratorList", "}").WithLabel("EnumSpecifier")
	b.rule("EnumSpecifier", "enum", "{", "EnumeratorList", ",", "}").WithLabel("EnumSpecifier")
	b.rule("EnumSpecifier", "enum", "IDENTIFIER", "{", "EnumeratorList", "}").WithLabel("EnumSpecifier")
	b.rule("EnumSpecifier", "enum", "IDENTIFIER", "{", "EnumeratorList", ",", "}").WithLabel("EnumSpecifier")
	b.rule("EnumSpecifier", "enum", "IDENTIFIER").WithLabel("EnumRef")
	b.pass("EnumeratorList", "Enumerator")
	b.list("EnumeratorList", "EnumeratorList", ",", "Enumerator")
	b.rule("Enumerator", "IDENTIFIER").WithLabel("Enumerator")
	b.rule("Enumerator", "IDENTIFIER", "=", "ConstantExpression").WithLabel("Enumerator")

	b.rule("TypeQualifier", "const").WithLabel("TypeQualifier")
	b.rule("TypeQualifier", "volatile").WithLabel("TypeQualifier")
	b.rule("TypeQualifier", "restrict").WithLabel("TypeQualifier")
	b.pass("TypeQualifier", "AttributeSpecifier")

	// gnu __attribute__((...)).
	b.rule("AttributeSpecifier", "__attribute__", "(", "(", "AttributeList", ")", ")").
		WithLabel("AttributeSpecifier")
	b.pass("AttributeSpecifierList", "AttributeSpecifier")
	b.list("AttributeSpecifierList", "AttributeSpecifierList", "AttributeSpecifier")
	b.list("AttributeList", "Attribute")
	b.list("AttributeList", "AttributeList", ",", "Attribute")
	b.rule("Attribute").WithLabel("Attribute")
	b.rule("Attribute", "AttributeWord").WithLabel("Attribute")
	b.rule("Attribute", "AttributeWord", "(", ")").WithLabel("Attribute")
	b.rule("Attribute", "AttributeWord", "(", "ArgumentExpressionList", ")").WithLabel("Attribute")
	b.pass("AttributeWord", "IDENTIFIER")
	b.pass("AttributeWord", "const")

	b.rule("Declarator", "Pointer", "DirectDeclarator").WithLabel("PointerDeclarator")
	b.pass("Declarator", "DirectDeclarator")

	b.rule("DirectDeclarator", "IDENTIFIER").WithLabel("IdentifierDeclarator")
	b.rule("DirectDeclarator", "(", "Declarator", ")").WithLabel("ParenDeclarator")
	b.rule("DirectDeclarator", "DirectDeclarator", "[", "ConstantExpression", "]").WithLabel("ArrayDeclarator")
	b.rule("DirectDeclarator", "DirectDeclarator", "[", "]").WithLabel("ArrayDeclarator")
	b.rule("DirectDeclarator", "DirectDeclarator", "(", "ParameterTypeList", ")").WithLabel("FunctionDeclarator")
	b.rule("DirectDeclarator", "DirectDeclarator", "(", "IdentifierList", ")").WithLabel("FunctionDeclarator")
	b.rule("DirectDeclarator", "DirectDeclarator", "(", ")").WithLabel("FunctionDeclarator")

	b.rule("Pointer", "*").WithLabel("Pointer")
	b.rule("Pointer", "*", "TypeQualifierList").WithLabel("Pointer")
	b.rule("Pointer", "*", "Pointer").WithLabel("Pointer")
	b.rule("Pointer", "*", "TypeQualifierList", "Pointer").WithLabel("Pointer")
	b.pass("TypeQualifierList", "TypeQualifier")
	b.list("TypeQualifierList", "TypeQualifierList", "TypeQualifier")

	b.pass("ParameterTypeList", "ParameterList")
	b.rule("ParameterTypeList", "ParameterList", ",", "...").WithLabel("VariadicParameters")
	b.pass("ParameterList", "ParameterDeclaration")
	b.list("ParameterList", "ParameterList", ",", "ParameterDeclaration")
	b.rule("ParameterDeclaration", "DeclarationSpecifiers", "Declarator").WithLabel("ParameterDeclaration")
	b.rule("ParameterDeclaration", "DeclarationSpecifiers", "AbstractDeclarator").WithLabel("ParameterDeclaration")
	b.rule("ParameterDeclaration", "DeclarationSpecifiers").WithLabel("ParameterDeclaration")

	b.pass("IdentifierList", "IDENTIFIER")
	b.list("IdentifierList", "IdentifierList", ",", "IDENTIFIER")

	b.rule("TypeName", "SpecifierQualifierList").WithLabel("TypeName")
	b.rule("TypeName", "SpecifierQualifierList", "AbstractDeclarator").WithLabel("TypeName")

	b.pass("AbstractDeclarator", "Pointer")
	b.pass("AbstractDeclarator", "DirectAbstractDeclarator")
	b.rule("AbstractDeclarator", "Pointer", "DirectAbstractDeclarator").WithLabel("PointerAbstractDeclarator")

	b.rule("DirectAbstractDeclarator", "(", "AbstractDeclarator", ")").WithLabel("ParenAbstractDeclarator")
	b.rule("DirectAbstractDeclarator", "[", "]").WithLabel("ArrayAbstractDeclarator")
	b.rule("DirectAbstractDeclarator", "[", "ConstantExpression", "]").WithLabel("ArrayAbstractDeclarator")
	b.rule("DirectAbstractDeclarator", "DirectAbstractDeclarator", "[", "]").WithLabel("ArrayAbstractDeclarator")
	b.rule("DirectAbstractDeclarator", "DirectAbstractDeclarator", "[", "ConstantExpression", "]").
		WithLabel("ArrayAbstractDeclarator")
	b.rule("DirectAbstractDeclarator", "(", ")").WithLabel("FunctionAbstractDeclarator")
	b.rule("DirectAbstractDeclarator", "(", "ParameterTypeList", ")").WithLabel("FunctionAbstractDeclarator")
	b.rule("DirectAbstractDeclarator", "DirectAbstractDeclarator", "(", ")").
		WithLabel("FunctionAbstractDeclarator")
	b.rule("DirectAbstractDeclarator", "DirectAbstractDeclarator", "(", "ParameterTypeList", ")").
		WithLabel("FunctionAbstractDeclarator")

	b.pass("Initializer", "AssignmentExpression")
	b.rule("Initializer", "{", "InitializerList", "}").WithLabel("BracedInitializer")
	b.rule("Initializer", "{", "InitializerList", ",", "}").WithLabel("BracedInitializer")
	b.pass("InitializerList", "InitializerItem")
	b.list("InitializerList", "InitializerList", ",", "InitializerItem")
	// C99 designated initializers: { .field = v, [3] = w }.
	b.pass("InitializerItem", "Initializer")
	b.rule("InitializerItem", "Designation", "Initializer").WithLabel("DesignatedInitializer")
	b.rule("Designation", "DesignatorList", "=").WithLabel("Designation")
	b.pass("DesignatorList", "Designator")
	b.list("DesignatorList", "DesignatorList", "Designator")
	b.rule("Designator", ".", "IDENTIFIER").WithLabel("FieldDesignator")
	b.rule("Designator", "[", "ConstantExpression", "]").WithLabel("IndexDesignator")
}

func defineStatements(g *lalr.Grammar, b *infoBuilder) {
	for _, kind := range []string{"LabeledStatement", "CompoundStatement", "ExpressionStatement",
		"SelectionStatement", "IterationStatement", "JumpStatement", "AsmStatement"} {
		b.pass("Statement", kind)
	}

	b.rule("LabeledStatement", "IDENTIFIER", ":", "Statement").WithLabel("LabelStatement")
	b.rule("LabeledStatement", "case", "ConstantExpression", ":", "Statement").WithLabel("CaseStatement")
	b.rule("LabeledStatement", "default", ":", "Statement").WithLabel("DefaultStatement")

	lb := b.rule("LBraceScope", "{")
	b.mark(lb, func(pi *ProdInfo) { pi.PushScope = true })
	rb := b.rule("RBraceScope", "}")
	b.mark(rb, func(pi *ProdInfo) { pi.PopScope = true })
	b.rule("CompoundStatement", "LBraceScope", "RBraceScope").WithLabel("CompoundStatement")
	b.rule("CompoundStatement", "LBraceScope", "BlockItemList", "RBraceScope").WithLabel("CompoundStatement")

	// C99 block items: declarations and statements intermixed.
	b.pass("BlockItem", "Declaration")
	b.pass("BlockItem", "Statement")
	b.rule("BlockItem", "__extension__", "Declaration").WithLabel("ExtensionDeclaration")
	b.pass("BlockItemList", "BlockItem")
	b.list("BlockItemList", "BlockItemList", "BlockItem")

	b.rule("ExpressionStatement", ";").WithLabel("EmptyStatement")
	b.rule("ExpressionStatement", "Expression", ";").WithLabel("ExpressionStatement")

	b.rule("SelectionStatement", "if", "(", "Expression", ")", "Statement").WithLabel("IfStatement")
	b.rule("SelectionStatement", "if", "(", "Expression", ")", "Statement", "else", "Statement").
		WithLabel("IfElseStatement")
	b.rule("SelectionStatement", "switch", "(", "Expression", ")", "Statement").WithLabel("SwitchStatement")

	b.rule("IterationStatement", "while", "(", "Expression", ")", "Statement").WithLabel("WhileStatement")
	b.rule("IterationStatement", "do", "Statement", "while", "(", "Expression", ")", ";").
		WithLabel("DoStatement")
	b.rule("IterationStatement", "for", "(", "ExpressionStatement", "ExpressionStatement", ")", "Statement").
		WithLabel("ForStatement")
	b.rule("IterationStatement", "for", "(", "ExpressionStatement", "ExpressionStatement", "Expression", ")", "Statement").
		WithLabel("ForStatement")
	b.rule("IterationStatement", "for", "(", "Declaration", "ExpressionStatement", ")", "Statement").
		WithLabel("ForStatement")
	b.rule("IterationStatement", "for", "(", "Declaration", "ExpressionStatement", "Expression", ")", "Statement").
		WithLabel("ForStatement")

	b.rule("JumpStatement", "goto", "IDENTIFIER", ";").WithLabel("GotoStatement")
	b.rule("JumpStatement", "continue", ";").WithLabel("ContinueStatement")
	b.rule("JumpStatement", "break", ";").WithLabel("BreakStatement")
	b.rule("JumpStatement", "return", ";").WithLabel("ReturnStatement")
	b.rule("JumpStatement", "return", "Expression", ";").WithLabel("ReturnStatement")

	// gnu inline assembly.
	b.rule("AsmStatement", "asm", "AsmQualifierOpt", "(", "AsmArguments", ")", ";").WithLabel("AsmStatement")
	b.rule("AsmQualifierOpt").WithLabel("AsmQualifier")
	b.rule("AsmQualifierOpt", "volatile").WithLabel("AsmQualifier")
	b.rule("AsmArguments", "StringLiterals", "AsmColonSections").WithLabel("AsmArguments")
	b.rule("AsmColonSections").WithLabel("AsmSections")
	b.list("AsmColonSections", "AsmColonSections", ":", "AsmOperandsOpt")
	b.rule("AsmOperandsOpt").WithLabel("AsmOperands")
	b.pass("AsmOperandsOpt", "AsmOperandList")
	b.pass("AsmOperandList", "AsmOperand")
	b.list("AsmOperandList", "AsmOperandList", ",", "AsmOperand")
	b.rule("AsmOperand", "STRING").WithLabel("AsmOperand")
	b.rule("AsmOperand", "STRING", "(", "Expression", ")").WithLabel("AsmOperand")
}

func defineTopLevel(g *lalr.Grammar, b *infoBuilder) {
	b.pass("TranslationUnit", "ExternalDeclarationList")
	// An empty translation unit is legal for our purposes: entire files can
	// vanish under some configurations.
	b.rule("TranslationUnit").WithLabel("EmptyTranslationUnit")
	b.pass("ExternalDeclarationList", "ExternalDeclaration")
	b.list("ExternalDeclarationList", "ExternalDeclarationList", "ExternalDeclaration")

	b.pass("ExternalDeclaration", "FunctionDefinition")
	b.pass("ExternalDeclaration", "Declaration")
	// Stray semicolons at file scope are a common gnu-ism.
	b.rule("ExternalDeclaration", ";").WithLabel("EmptyExternalDeclaration")
	b.rule("ExternalDeclaration", "__extension__", "ExternalDeclaration").WithLabel("ExtensionDeclaration")

	// K&R-style parameter declaration lists are omitted: they are absent
	// from modern code and their DeclarationSpecifiers-after-Declarator
	// position is irreconcilable with post-declarator __attribute__ in
	// LALR(1).
	b.rule("FunctionDefinition", "DeclarationSpecifiers", "Declarator", "CompoundStatement").
		WithLabel("FunctionDefinition")
	b.rule("FunctionDefinition", "Declarator", "CompoundStatement").
		WithLabel("FunctionDefinition") // implicit int
}
